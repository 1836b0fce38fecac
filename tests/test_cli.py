import contextlib
import io
import itertools
import json
import random
import resource
import sys
from pathlib import Path

import pytest

from jmrep import (
    EndomorphismSpec,
    canonical_dumps,
    catalog,
    encode_endo,
    encode_matrix,
    encode_phi2,
    encode_rho2,
    encode_word,
    entry_to_dict,
)
from jmrep.cli import VERBS, main
from jmrep.jsonio import MAX_DIGITS
from helpers import (
    rand_catalog_product,
    rand_member,
    rand_phi2,
    rand_pi_point,
    rand_symplectic,
    rand_word,
)

DATA = Path(__file__).resolve().parent / "data"

I2 = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
I3 = [[1 if i == j else 0 for j in range(6)] for i in range(6)]


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    if code == 2:
        assert out == ""
        return code, out
    assert out.endswith("\n") and out.count("\n") == 1
    return code, out[:-1]


def test_check_mcg_accepts_the_trivial_element(tmp_path, capsys):
    doc = {"r": {"genus": 2, "terms": []}, "R": {"genus": 2, "rows": I2}}
    code, out = run(capsys, ["check-mcg", write_doc(tmp_path, "f.json", doc)])
    assert code == 0
    assert out == '{"E_odd_triples":[],"member":true}'


def test_check_mcg_reports_the_odd_triples(tmp_path, capsys):
    doc = {
        "r": {"genus": 2, "terms": [{"idx": [1, 2, 3], "twice": 1}]},
        "R": {"genus": 2, "rows": I2},
    }
    code, out = run(capsys, ["check-mcg", write_doc(tmp_path, "f.json", doc)])
    assert code == 1
    assert out == '{"E_odd_triples":[[1,2,3]],"member":false}'


def test_lift_of_the_identity_matrix(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", {"genus": 2, "rows": I2})
    code, out = run(capsys, ["lift", path])
    assert code == 0
    assert out == (
        '{"R":{"genus":2,"rows":[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]},'
        '"r":{"genus":2,"terms":[]}}'
    )


def test_check_handlebody_rejects_a_class_triples(tmp_path, capsys):
    doc = {
        "r": {"genus": 3, "terms": [{"idx": [1, 2, 3], "twice": 2}]},
        "R": {"genus": 3, "rows": I3},
    }
    code, out = run(capsys, ["check-handlebody", write_doc(tmp_path, "f.json", doc)])
    assert code == 1
    assert out == '{"failed":["condition 3"],"member":false}'


def test_check_handlebody_accepts_b_class_triples(tmp_path, capsys):
    doc = {
        "r": {"genus": 3, "terms": [{"idx": [4, 5, 6], "twice": 2}]},
        "R": {"genus": 3, "rows": I3},
    }
    code, out = run(capsys, ["check-handlebody", write_doc(tmp_path, "f.json", doc)])
    assert code == 0
    assert out == '{"failed":[],"member":true}'


@pytest.mark.parametrize("seed", range(4))
def test_lift_output_feeds_back_as_a_member(tmp_path, capsys, seed):
    rng = random.Random(2400 + seed)
    g = rng.choice((2, 3))
    M = rand_symplectic(rng, g)
    path = write_doc(tmp_path, "m.json", {"genus": g, "rows": [list(r) for r in M.rows]})
    code, out = run(capsys, ["lift", path])
    assert code == 0
    lifted = write_doc(tmp_path, "lifted.json", json.loads(out))
    code, out2 = run(capsys, ["check-mcg", lifted])
    assert code == 0
    assert json.loads(out2)["member"] is True
    # output is already in canonical form
    code, out3 = run(capsys, ["lift", path])
    assert out3 == out


def test_act_applies_the_fiber_as_an_operator(tmp_path, capsys):
    f = {
        "r": {"genus": 2, "terms": [{"idx": [1, 2, 3], "twice": 2}]},
        "R": {"genus": 2, "rows": I2},
    }
    p = {"eta": {"genus": 2, "terms": []}, "y": {"genus": 2, "coeffs": [1, 0, 0, 0]}}
    code, out = run(
        capsys,
        ["act", write_doc(tmp_path, "f.json", f), write_doc(tmp_path, "p.json", p)],
    )
    assert code == 0
    assert out == (
        '{"eta":{"genus":2,"terms":[{"idx":[1,2],"twice":2}]},'
        '"y":{"coeffs":[1,0,0,0],"genus":2}}'
    )


def test_eval_word_of_the_boundary_word(tmp_path, capsys):
    doc = {"genus": 2, "letters": [1, 3, -1, -3, 2, 4, -2, -4]}
    code, out = run(capsys, ["eval-word", write_doc(tmp_path, "w.json", doc)])
    assert code == 0
    assert out == (
        '{"eta":{"genus":2,"terms":[{"idx":[1,3],"twice":2},{"idx":[2,4],"twice":2}]},'
        '"y":{"coeffs":[0,0,0,0],"genus":2}}'
    )


def test_phi2_member_exit_codes(tmp_path, capsys):
    member = {"eta": {"genus": 2, "terms": []}, "y": {"genus": 2, "coeffs": [1, 0, 0, 0]}}
    code, out = run(capsys, ["phi2-member", write_doc(tmp_path, "p.json", member)])
    assert (code, out) == (0, '{"member":true}')
    nonmember = {"eta": {"genus": 2, "terms": []}, "y": {"genus": 2, "coeffs": [1, 0, 1, 0]}}
    code, out = run(capsys, ["phi2-member", write_doc(tmp_path, "q.json", nonmember)])
    assert (code, out) == (1, '{"member":false}')


def test_b_member_exit_codes(tmp_path, capsys):
    inside = {"eta": {"genus": 2, "terms": []}, "y": {"genus": 2, "coeffs": [0, 0, 1, 0]}}
    code, out = run(capsys, ["b-member", write_doc(tmp_path, "p.json", inside)])
    assert (code, out) == (0, '{"member":true}')
    outside = {"eta": {"genus": 2, "terms": []}, "y": {"genus": 2, "coeffs": [1, 0, 0, 0]}}
    code, out = run(capsys, ["b-member", write_doc(tmp_path, "q.json", outside)])
    assert (code, out) == (1, '{"member":false}')


def test_mul_and_inv_in_the_nilpotent_quotient(tmp_path, capsys):
    a = {"eta": {"genus": 1, "terms": []}, "y": {"genus": 1, "coeffs": [1, 0]}}
    b = {"eta": {"genus": 1, "terms": []}, "y": {"genus": 1, "coeffs": [0, 1]}}
    pa, pb = write_doc(tmp_path, "a.json", a), write_doc(tmp_path, "b.json", b)
    code, out = run(capsys, ["mul", pa, pb])
    assert code == 0
    assert out == (
        '{"eta":{"genus":1,"terms":[{"idx":[1,2],"twice":1}]},'
        '"y":{"coeffs":[1,1],"genus":1}}'
    )
    code, out = run(capsys, ["inv", pa])
    assert code == 0
    assert out == '{"eta":{"genus":1,"terms":[]},"y":{"coeffs":[-1,0],"genus":1}}'


def test_mul_in_the_semidirect_product_twists_the_fiber(tmp_path, capsys):
    J2 = {"genus": 1, "rows": [[0, -1], [1, 0]]}
    f = {"r": {"genus": 1, "terms": []}, "R": J2}
    h = {"r": {"genus": 1, "terms": []}, "R": J2}
    pf, ph = write_doc(tmp_path, "f.json", f), write_doc(tmp_path, "h.json", h)
    code, out = run(capsys, ["mul", pf, ph])
    assert code == 0
    assert json.loads(out)["R"]["rows"] == [[-1, 0], [0, -1]]


def test_mul_rejects_mixed_group_elements(tmp_path, capsys):
    f = {"r": {"genus": 1, "terms": []}, "R": {"genus": 1, "rows": [[1, 0], [0, 1]]}}
    p = {"eta": {"genus": 1, "terms": []}, "y": {"genus": 1, "coeffs": [0, 0]}}
    code, _ = run(
        capsys,
        ["mul", write_doc(tmp_path, "f.json", f), write_doc(tmp_path, "p.json", p)],
    )
    assert code == 2


def test_compute_E_of_a_cross_handle_transvection(tmp_path, capsys):
    rows = [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [1, 1, 1, 0],
        [1, 1, 0, 1],
    ]
    path = write_doc(tmp_path, "m.json", {"genus": 2, "rows": rows})
    code, out = run(capsys, ["compute-E", path])
    assert code == 0
    assert out == (
        '{"E":[{"idx":[1,3,4],"value":-1},{"idx":[2,3,4],"value":1}],"genus":2}'
    )


def test_validate_entry_accepts_and_rejects(tmp_path, capsys):
    entry = entry_to_dict(catalog(2)[0])
    code, out = run(capsys, ["validate-entry", write_doc(tmp_path, "e.json", entry)])
    assert code == 0
    assert json.loads(out) == {"name": entry["name"], "passed": True, "failures": []}
    broken = dict(entry)
    broken["inverse_images"] = entry["images"]
    code, out = run(capsys, ["validate-entry", write_doc(tmp_path, "b.json", broken)])
    assert code == 1
    assert json.loads(out)["passed"] is False
    assert json.loads(out)["failures"]


@pytest.mark.parametrize("doc", [
    [1, 2],
    {**entry_to_dict(catalog(2)[0]), "images": [1, 2]},
    {"name": "t", "genus": True, "images": [[1], [2, 1]],
     "inverse_images": [[1], [2, -1]], "claimed_handlebody": False},
], ids=["not_an_object", "images_not_words", "genus_true"])
def test_validate_entry_rejects_wrong_types(tmp_path, capsys, doc):
    code = main(["validate-entry", write_doc(tmp_path, "e.json", doc)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("field, message", [
    ("name", "entry name must be a nonempty string"),
    ("images", "'images' must be an array of letter arrays"),
    ("inverse_images", "'inverse_images' must be an array of letter arrays"),
    ("claimed_handlebody", "claimed_handlebody must be a boolean"),
])
def test_validate_entry_missing_field_exits_2_with_its_message(tmp_path, capsys, field,
                                                              message):
    doc = entry_to_dict(catalog(2)[0])
    del doc[field]
    code = main(["validate-entry", write_doc(tmp_path, "e.json", doc)])
    assert (code, *capsys.readouterr()) == (2, "", f"error: {message}\n")


def test_basis_lists_the_torelli_handlebody_generators(tmp_path, capsys):
    path = write_doc(tmp_path, "g.json", {"genus": 3})
    code, out = run(capsys, ["basis", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["genus"] == 3
    assert len(doc["basis"]) == 19
    for f in doc["basis"]:
        assert set(f) == {"r", "R"}
        assert f["R"]["rows"] == I3
        (term,) = f["r"]["terms"]
        assert term["twice"] == 2


def test_catalog_list_names_every_shipped_entry(tmp_path, capsys):
    path = write_doc(tmp_path, "g.json", {"genus": 2})
    code, out = run(capsys, ["catalog-list", path])
    assert code == 0
    doc = json.loads(out)
    names = [e["name"] for e in doc["entries"]]
    assert names == sorted(names)
    assert "twist_b_1" in names and "cross_twist_b12" in names
    assert all(set(e) == {"name", "claimed_handlebody"} for e in doc["entries"])


def test_stdin_dash_reads_one_document(capsys, monkeypatch):
    doc = {"genus": 1, "letters": [1, 2, -1, -2]}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code, out = run(capsys, ["eval-word", "-"])
    assert code == 0
    assert json.loads(out)["y"]["coeffs"] == [0, 0]


def test_stdin_dash_twice_is_rejected(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("{}"))
    code, _ = run(capsys, ["mul", "-", "-"])
    assert code == 2


def test_missing_file_exits_2(capsys):
    code, out = run(capsys, ["lift", "/nonexistent/path.json"])
    assert code == 2


@pytest.mark.parametrize("text", ["{not json", "[" * 100_000 + "]" * 100_000],
                         ids=["not_json", "nested_too_deeply"])
def test_malformed_json_exits_2(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["check-mcg", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def test_non_symplectic_matrix_exits_2(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", {"genus": 1, "rows": [[2, 0], [0, 2]]})
    code, _ = run(capsys, ["lift", path])
    assert code == 2


def test_missing_schema_fields_exit_2(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", {"genus": 2})
    for verb in ("lift", "compute-E"):
        code, _ = run(capsys, [verb, path])
        assert code == 2
    path = write_doc(tmp_path, "e.json", {"name": "x"})
    code, _ = run(capsys, ["validate-entry", path])
    assert code == 2


def test_rho2_verb_matches_the_catalog_twist(tmp_path, capsys):
    entry = entry_to_dict(next(e for e in catalog(2) if e.name == "twist_b_1"))
    endo = {"genus": 2, "images": entry["images"]}
    code, out = run(capsys, ["rho2", write_doc(tmp_path, "e.json", endo)])
    assert code == 0
    doc = json.loads(out)
    assert doc["r"]["terms"] == []
    assert doc["R"]["rows"] == [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1]]


def test_rho2_verb_rejects_non_symplectic_endomorphism(tmp_path, capsys):
    endo = {"genus": 1, "images": [[1, 1], [2]]}
    assert main(["rho2", write_doc(tmp_path, "e.json", endo)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: endomorphism abelianization is not symplectic: matrix fails "
                   "M J M~ = J: entry (1, 2) of M J M~ is -2, of J is -1\n")


def test_usage_errors_exit_2_via_argparse(capsys):
    for argv in ([], ["bogus-verb"], ["lift"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


def test_help_matches_the_golden_file(capsys, monkeypatch):
    """The top-level help and every verb's help, rendered at 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")
    parts = []
    for argv in [[]] + [[verb] for verb in VERBS]:
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        parts.append("$ " + " ".join(["jmrep", *argv, "--help"]) + "\n" + capsys.readouterr().out)
    assert "".join(parts) == (DATA / "cli_help.txt").read_text()


@contextlib.contextmanager
def address_space_cap(headroom=1 << 30):
    """Cap this process's address space at its current size plus headroom.

    Inside, an input that escapes the genus bound raises MemoryError instead
    of taking the host's memory.  Without /proc (not Linux) nothing is capped.
    """
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    try:
        with open("/proc/self/statm") as fh:
            size = int(fh.read().split()[0]) * resource.getpagesize()
    except OSError:
        yield
        return
    cap = size + headroom
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.mark.parametrize("verb, doc", [
    ("basis", {"genus": 17}),
    ("catalog-list", {"genus": 17}),
    ("eval-word", {"genus": 10**9, "letters": [1]}),
    ("basis", {"genus": 10**9}),
])
def test_genus_past_the_bound_exits_2(tmp_path, capsys, verb, doc):
    path = write_doc(tmp_path, "d.json", doc)
    with address_space_cap():
        code = main([verb, path])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == "error: field 'genus' must be at most 16\n"


def test_genus_at_the_bound_is_accepted(tmp_path, capsys):
    code, out = run(capsys, ["catalog-list", write_doc(tmp_path, "g.json", {"genus": 16})])
    assert (code, out) == (0, '{"entries":[],"genus":16}')


def _element_at_the_digit_bound(g):
    """(r, R) with MAX_DIGITS-digit integers: every doubled coefficient of r, and
    the symmetric block S of R = [[I, S], [0, I]], whose 3x3 minors are large."""
    unit, n = 10 ** (MAX_DIGITS - 1), 2 * g
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j in itertools.product(range(g), repeat=2):
        rows[i][g + j] = unit * (1 + (i * i + j * j + i * j) % 9)
    terms = [{"idx": list(t), "twice": 10 ** MAX_DIGITS - 1}
             for t in itertools.combinations(range(1, n + 1), 3)]
    return {"r": {"genus": g, "terms": terms}, "R": {"genus": g, "rows": rows}}


def test_mul_at_the_digit_bound_prints(tmp_path, capsys):
    """mul's fiber r_f + R_f r_g, the largest output, has about four input sizes."""
    f = write_doc(tmp_path, "f.json", _element_at_the_digit_bound(3))
    code, out = run(capsys, ["mul", f, f])
    assert code == 0
    digits = max(len(str(abs(t["twice"]))) for t in json.loads(out)["r"]["terms"])
    assert 4 * MAX_DIGITS - 5 < digits < 4300


@pytest.mark.parametrize("digits", [MAX_DIGITS + 1, 5000])
def test_integer_past_the_digit_bound_exits_2(tmp_path, capsys, digits):
    # 5000 digits is also past Python's own limit on converting text to an int
    doc = _element_at_the_digit_bound(3)
    doc["r"]["terms"][0]["twice"] = "HUGE"
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc).replace('"HUGE"', "-" + "9" * digits))
    f = write_doc(tmp_path, "f.json", _element_at_the_digit_bound(3))
    code = main(["mul", f, str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == f"error: integers must have at most {MAX_DIGITS} digits\n"


# ---------------------------------------------------------------- fuzzing

_OTHER_VALUES = ("x", True, 2.5, None, -1, [1, 2], [[1], [2]], {"x": 1})
_BAD_GENUS = (0, True, 17, 10**9)
_HUGE = (10 ** MAX_DIGITS, -(10 ** MAX_DIGITS))


def _valid_calls(rng, g):
    """(verb, documents) for each of the 14 verbs at genus g."""
    R = rand_symplectic(rng, g, length=4)
    f, f2 = encode_rho2(rand_member(rng, g, R)), encode_rho2(rand_member(rng, g))
    p, p2 = encode_phi2(rand_phi2(rng, g)), encode_phi2(rand_pi_point(rng, g))
    m = encode_matrix(R)
    if catalog(g):
        endo = rand_catalog_product(rng, g, max_factors=3)
        entry = entry_to_dict(rng.choice(catalog(g)))
    else:
        endo = EndomorphismSpec.identity(g)
        images = [[k] for k in range(1, 2 * g + 1)]
        entry = {"name": "identity", "genus": g, "images": images,
                 "inverse_images": images, "claimed_handlebody": True}
    return [
        ("check-mcg", [f]), ("check-handlebody", [f]), ("lift", [m]),
        ("rho2", [encode_endo(endo)]), ("act", [f, p]),
        ("eval-word", [encode_word(rand_word(rng, g))]),
        ("phi2-member", [p]), ("b-member", [p]),
        ("mul", rng.choice([[f, f2], [p, p2]])), ("inv", [rng.choice([f, p])]),
        ("compute-E", [m]), ("validate-entry", [entry]),
        ("basis", [{"genus": g}]), ("catalog-list", [{"genus": g}]),
    ]


def _slots(holder):
    """(container, key) of every node below holder, the document itself included."""
    stack = [holder]
    while stack:
        node = stack.pop()
        for key in (node if isinstance(node, dict) else range(len(node))):
            yield node, key
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])


def _mutate(rng, doc, kind=None):
    """A copy of doc with one wrong-typed node, missing field, bad genus, huge integer
    or unknown field.

    The kind is drawn from the first three unless given."""
    holder = [json.loads(json.dumps(doc))]
    slots = list(_slots(holder))
    kind = kind or rng.choice(("wrong_type", "missing_field", "genus"))
    if kind == "genus":
        slots = [(c, k) for c, k in slots if k == "genus"] or slots
    elif kind == "huge":
        slots = [(c, k) for c, k in slots if type(c[k]) is int]
    elif kind == "missing_field":
        slots = [(c, k) for c, k in slots if isinstance(c, dict)] or slots
    elif kind == "unknown_field":  # no schema has a field "note"
        obj = rng.choice([c[k] for c, k in slots if isinstance(c[k], dict)])
        obj["note"] = rng.choice(_OTHER_VALUES)
        return holder[0]
    container, key = rng.choice(slots)
    if kind == "missing_field" and isinstance(container, list):
        kind = "wrong_type"  # an array has no field to drop
    if kind == "missing_field":
        del container[key]
    else:
        container[key] = rng.choice(
            {"genus": _BAD_GENUS, "huge": _HUGE}.get(kind, _OTHER_VALUES))
    return holder[0]


def test_every_verb_keeps_the_exit_contract_on_mutated_documents(tmp_path, capsys):
    """Exit 0 or 1 with one canonical line, or exit 2 with an error and no output.

    A huge integer anywhere in a document exits 2 for every verb.  An unknown
    field in any object changes neither the exit code nor stdout."""
    rng, huge_rng, note_rng = random.Random(1100), random.Random(1101), random.Random(1102)
    codes = {verb: set() for verb in VERBS}

    def call(verb, docs):
        paths = [write_doc(tmp_path, f"d{j}.json", d) for j, d in enumerate(docs)]
        code = main([verb, *paths])
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), (verb, docs)
        if code == 2:
            assert out == "" and err.startswith("error: "), (verb, docs)
        else:
            assert out == canonical_dumps(json.loads(out)) + "\n", (verb, docs)
        return code, out

    with address_space_cap():
        for round_ in range(6):
            for g in (1, 2, 3):
                for verb, docs in _valid_calls(rng, g):
                    docs = list(docs)
                    for _ in range(rng.randint(1, 2)):
                        j = rng.randrange(len(docs))
                        docs[j] = _mutate(rng, docs[j])
                    codes[verb].add(call(verb, docs)[0])
        for g in (1, 2, 3):
            for verb, docs in _valid_calls(huge_rng, g):
                docs = list(docs)
                j = huge_rng.randrange(len(docs))
                docs[j] = _mutate(huge_rng, docs[j], "huge")
                assert call(verb, docs)[0] == 2, (verb, docs)
        for g in (1, 2, 3):
            for verb, docs in _valid_calls(note_rng, g):
                code, out = call(verb, docs)
                assert code in (0, 1), (verb, docs)
                j = note_rng.randrange(len(docs))
                docs = [*docs[:j], _mutate(note_rng, docs[j], "unknown_field"), *docs[j + 1:]]
                assert call(verb, docs) == (code, out), (verb, docs)
    assert all(2 in seen for seen in codes.values())
    assert any(seen & {0, 1} for seen in codes.values())
