import importlib
import itertools
import json
from pathlib import Path

import pytest

from jmrep import (
    CatalogEntry,
    EndomorphismSpec,
    FreeWord,
    Rho2Element,
    SymplecticMatrix,
    Wedge3,
    basis_vector,
    catalog,
    entry_from_dict,
    entry_to_dict,
    ValidationReport,
    tau2_from_endo,
    transvection,
    validate_entry,
)
from jmrep.catalog import _entries
from helpers import ref_validate_failures

FIXTURES = Path(__file__).resolve().parent / "data" / "catalog"


@pytest.mark.parametrize("g", (2, 3))
def test_every_shipped_entry_passes_validation(g):
    entries = catalog(g)
    assert entries, f"no entries shipped for genus {g}"
    for entry in entries:
        report = validate_entry(entry)
        assert report.passed, (entry.name, report.failures)


@pytest.mark.parametrize("g", (2, 3))
def test_shipped_names_are_unique_and_cover_both_claims(g):
    entries = catalog(g)
    names = [e.name for e in entries]
    assert len(names) == len(set(names))
    claims = {e.claimed_handlebody for e in entries}
    assert claims == {True, False}


def test_catalog_of_unshipped_genus_is_empty():
    # The benchmark's represent pool is catalog(g) plus its own twist entries at
    # g = 3 and 4: a nonempty catalog(4) would change that workload.
    assert catalog(1) == catalog(4) == catalog(7) == []


@pytest.mark.parametrize("g", (2, 3))
def test_catalog_reproduces_the_golden_entries(g):
    fixtures = sorted((FIXTURES / f"genus{g}").glob("*.json"))
    assert [entry_to_dict(e) for e in catalog(g)] == [json.loads(f.read_text()) for f in fixtures]


@pytest.mark.parametrize("g", range(1, 6))
def test_generated_entries_pass_validation(g):
    entries = _entries(g)
    assert len({e.name for e in entries}) == len(entries)
    for entry in entries:
        report = validate_entry(entry)
        assert report.passed, (entry.name, report.failures)
    identity = SymplecticMatrix.identity(g)
    # tau vanishes on separating twists (Johnson 1980)
    for entry in entries:
        if entry.name in ("boundary_twist", "separating_twist_12"):
            f = tau2_from_endo(entry.spec)
            assert f.r.is_zero() and f.R == identity, entry.name
    assert ("separating_twist_12" in {e.name for e in entries}) == (g >= 3)


def _broken_variants(entry):
    """The entry made self-inverse, with one image of its spec lengthened, and
    with the first two images of its inverse swapped."""
    g, spec, inverse = entry.genus, entry.spec, entry.inverse_spec
    longer = (spec.images[0] * FreeWord.generator(g, 2 * g), *spec.images[1:])
    swapped = (inverse.images[1], inverse.images[0], *inverse.images[2:])
    return [entry._replace(inverse_spec=spec),
            entry._replace(spec=EndomorphismSpec(g, longer)),
            entry._replace(inverse_spec=EndomorphismSpec(g, swapped))]


@pytest.mark.parametrize("g", range(1, 6))
def test_one_composition_gives_the_two_sided_verdict(g, monkeypatch):
    # Free groups of finite rank are Hopfian, so f o h = id iff h o f = id: the
    # report equals that of a reference composing in both orders
    module = importlib.import_module("jmrep.catalog")
    composed = []
    real_compose = module.endo_compose
    monkeypatch.setattr(module, "endo_compose",
                        lambda e1, e2: composed.append(1) or real_compose(e1, e2))
    entries = [v for e in _entries(g) for v in (e, *_broken_variants(e))]
    for n, entry in enumerate(entries):
        failures = validate_entry(entry).failures
        assert failures == ref_validate_failures(entry), entry
        # every fourth entry is a generated one; the three after it are broken
        assert ("inverse_spec o spec is not the identity" in failures) == (n % 4 != 0)
    assert len(composed) == len(entries)


def test_twist_b_entry_has_transvection_degree_two_value():
    (entry,) = [e for e in catalog(2) if e.name == "twist_b_1"]
    f = tau2_from_endo(entry.spec)
    assert f.r.is_zero()
    assert f.R == transvection(basis_vector(2, 3))


def test_cross_twist_entries_mix_handles():
    for g in range(2, 6):
        by_name = {e.name: e for e in _entries(g)}
        cross = by_name["cross_twist_b12"]
        R = SymplecticMatrix(cross.spec.abelianization().rows)
        assert R == transvection(basis_vector(g, g + 1) + basis_vector(g, g + 2))
        assert cross.claimed_handlebody
        cross_a = by_name["cross_twist_a12"]
        Ra = SymplecticMatrix(cross_a.spec.abelianization().rows)
        assert Ra == transvection(basis_vector(g, 1) + basis_vector(g, 2))
        assert not cross_a.claimed_handlebody


def test_catalog_abelianizations_do_not_all_commute():
    mats = [SymplecticMatrix(e.spec.abelianization().rows) for e in catalog(2)]
    assert any(A * B != B * A for A, B in itertools.combinations(mats, 2))


def test_validation_rejects_wrong_inverse():
    good = next(e for e in catalog(2) if e.name == "twist_a_1")
    swapped = CatalogEntry(good.name, good.spec, good.spec, good.claimed_handlebody)
    report = validate_entry(swapped)
    assert "spec o inverse_spec is not the identity" in report.failures


def test_validation_rejects_non_automorphism():
    g = 2
    doubler = EndomorphismSpec.from_letter_lists(g, [[1, 1], [2], [3], [4]])
    entry = CatalogEntry("bad", doubler, doubler, False)
    report = validate_entry(entry)
    assert "abelianization is not symplectic" in report.failures
    assert "boundary word is not fixed" in report.failures


def test_validation_rejects_boundary_moving_automorphism():
    g = 2
    # swap the two handles: a genuine automorphism, but the boundary word
    # it fixes is the commutator product in the other order
    swap = EndomorphismSpec.from_letter_lists(g, [[2], [1], [4], [3]])
    entry = CatalogEntry("swap", swap, swap, False)
    report = validate_entry(entry)
    assert report.failures == ("boundary word is not fixed",)


def test_validation_rejects_false_handlebody_claim():
    good = next(e for e in catalog(2) if e.name == "twist_a_1")
    assert not good.claimed_handlebody
    lied = CatalogEntry(good.name, good.spec, good.inverse_spec, True)
    report = validate_entry(lied)
    assert any("claimed handlebody" in f for f in report.failures)


def test_validation_stops_at_an_inverse_of_another_genus():
    entry = CatalogEntry("x", EndomorphismSpec.identity(2), EndomorphismSpec.identity(3), False)
    assert validate_entry(entry).failures == ("inverse genus differs",)


def _fixing_all_but(moved):
    """The genus-3 spec that sends each generator in moved to its word, fixing the others."""
    return EndomorphismSpec.from_letter_lists(3, [moved.get(x, [x]) for x in range(1, 7)])


NOT_THE_IDENTITY = ("spec o inverse_spec is not the identity",
                    "inverse_spec o spec is not the identity", "boundary word is not fixed")


def test_handlebody_claim_fails_at_degree_two_outside_wedge3():
    # b3 -> b3[a1, a2]: R = I, and the value at b1 is not induced by any r
    spec = _fixing_all_but({6: [6, 1, 2, -1, -2]})
    report = validate_entry(CatalogEntry("x", spec, EndomorphismSpec.identity(3), True))
    assert report.failures == NOT_THE_IDENTITY + (
        "claimed handlebody but degree-two value fails: the value at b1 is not that of any "
        "element of (1/2)W3(H) (first difference at a2^a3)",)


def test_handlebody_claim_fails_on_membership():
    # b1 -> b1[a2, a3], b2 -> b2[a3, a1], b3 -> b3[a1, a2]: r = -a1^a2^a3 and R = I
    spec = _fixing_all_but({4: [4, 2, 3, -2, -3], 5: [5, 3, 1, -3, -1], 6: [6, 1, 2, -1, -2]})
    assert tau2_from_endo(spec) == Rho2Element(-Wedge3.basis(3, 1, 2, 3),
                                               SymplecticMatrix.identity(3))
    report = validate_entry(CatalogEntry("x", spec, EndomorphismSpec.identity(3), True))
    assert report.failures == NOT_THE_IDENTITY + ("claimed handlebody but membership fails",)


def test_entry_and_report_records():
    good = next(e for e in catalog(2) if e.name == "twist_a_1")
    same = CatalogEntry(good.name, good.spec, good.inverse_spec, good.claimed_handlebody)
    assert same == good and hash(same) == hash(good) and same.genus == 2
    assert same != CatalogEntry(good.name, good.spec, good.spec, good.claimed_handlebody)
    assert repr(good).startswith("CatalogEntry(name='twist_a_1', spec=EndomorphismSpec(")
    assert repr(good).endswith(", claimed_handlebody=False)")
    report = validate_entry(good)
    assert report == ValidationReport("twist_a_1", ()) and report.passed
    bad = ValidationReport("x", ("boundary word is not fixed",))
    assert repr(bad) == "ValidationReport(name='x', failures=('boundary word is not fixed',))"
    assert (bad.name, bad.failures, bad.passed) == ("x", ("boundary word is not fixed",), False)


def test_entry_dict_roundtrip():
    for entry in catalog(2) + catalog(3):
        doc = entry_to_dict(entry)
        back = entry_from_dict(doc)
        assert back == entry
        assert entry_to_dict(back) == doc


def test_entry_from_dict_rejects_malformed_documents():
    base = entry_to_dict(catalog(2)[0])
    for key, value in (
        ("name", ""),
        ("genus", 0),
        ("genus", "2"),
        ("claimed_handlebody", 1),
    ):
        doc = dict(base)
        doc[key] = value
        with pytest.raises(ValueError):
            entry_from_dict(doc)
    # a missing field gets its field's type message, not a KeyError
    for key, message in (
        ("name", "entry name must be a nonempty string"),
        ("images", "'images' must be an array of letter arrays"),
        ("inverse_images", "'inverse_images' must be an array of letter arrays"),
        ("claimed_handlebody", "claimed_handlebody must be a boolean"),
    ):
        doc = dict(base)
        del doc[key]
        with pytest.raises(ValueError, match=f"^{message}$"):
            entry_from_dict(doc)
