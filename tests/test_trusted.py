"""Closed operations build their results through the private trusted
constructors (_Wedge._of, HVector._of, IntMatrix._of, FreeWord._of,
EndomorphismSpec._of, Phi2Element._of, Rho2Element._of, HomHW2._of) and skip
validation.

The first tests check that every such result is still in canonical form: it
equals its copy rebuilt through the public constructor and holds no zero
coefficient; the columns of a matrix equal zip(*rows); the table a spec keeps
holds its reduced signed images and is ignored like a matrix's odd set.  The
last three check that the hot paths really skip validation, that the JSON
decoders leave each entry to its public constructor, which checks it once, and
that they leave genus agreement to the constructor of the pair or
endomorphism.
"""

import random
from pathlib import Path

import pytest

import jmrep.jsonio as jsonio
import jmrep.linalg as linalg
import jmrep.phi2 as phi2
import jmrep.rho2 as rho2
import jmrep.wedge as wedge
import jmrep.words as words
from jmrep import (
    EndomorphismSpec,
    FreeWord,
    GenusMismatch,
    HomHW2,
    HVector,
    IntMatrix,
    Phi2Element,
    Rho2Element,
    SymplecticMatrix,
    Wedge2,
    Wedge3,
    act_on_phi2,
    boundary_word,
    canonical_lift,
    catalog,
    compute_E,
    decode_endo,
    decode_hvector,
    decode_phi2,
    decode_rho2,
    decode_symplectic,
    decode_wedge2,
    decode_wedge3,
    decode_word,
    encode_endo,
    encode_hvector,
    encode_matrix,
    encode_phi2,
    encode_rho2,
    encode_wedge2,
    encode_wedge3,
    encode_word,
    endo_apply,
    endo_compose,
    handlebody_membership,
    half_wedge2_of,
    kappa,
    make_J,
    mcg_membership,
    phi2_eval_word,
    phi2_inv,
    phi2_mul,
    preserves_phi2_b,
    rho2_inv,
    rho2_mul,
    sp_action_on_hom,
    symplectic_check,
    symplectic_inverse,
    tau2_from_endo,
    transvection,
    validate_entry,
    wedge2_sp_action,
    wedge3_apply,
    wedge3_decode,
    wedge3_embed,
    wedge3_sp_action,
    word_reduce,
    zero_vector,
)
from helpers import (
    catalog_specs,
    rand_member,
    rand_pi_point,
    rand_symplectic,
    rand_vector,
    rand_wedge2,
    rand_wedge3,
    rand_word,
)


def assert_canonical(w):
    assert all(w._twice.values()), w._twice
    assert type(w)(w.genus, dict(w._twice)) == w


def assert_canonical_vector(v):
    assert HVector(v.coeffs) == v


def assert_canonical_matrix(M):
    assert IntMatrix(M.rows) == M
    if isinstance(M, SymplecticMatrix):
        assert symplectic_check(M)


@pytest.mark.parametrize("g", range(1, 6))
def test_wedge_operations_stay_canonical(g):
    rng = random.Random(500 + g)
    for _ in range(3):
        # bound 1 makes cancellation between terms common
        w, w2 = rand_wedge2(rng, g, bound=1), rand_wedge2(rng, g, bound=1)
        r, r2 = rand_wedge3(rng, g, bound=1), rand_wedge3(rng, g, bound=1)
        R = rand_symplectic(rng, g)
        u, v = rand_vector(rng, g, bound=1), rand_vector(rng, g, bound=1)
        m = HomHW2(rand_wedge2(rng, g, bound=1) for _ in range(2 * g))
        point = phi2_eval_word(rand_word(rng, g))
        assert_canonical_vector(point.y)
        results = [
            w + w2, w - w2, -w, 0 * w, 3 * w, -2 * r,
            r + r2, r - r2, -r, 0 * r,
            wedge2_sp_action(R, w), wedge3_sp_action(R, r),
            wedge3_apply(r, u), kappa(u), half_wedge2_of(u, v),
            wedge3_decode(wedge3_embed(r)), point.eta, canonical_lift(R).r,
            *m.precompose(R).images, *m.precompose(IntMatrix(tuple(zip(*R.rows)))).images,
        ]
        for x in results:
            assert_canonical(x)
        assert wedge3_decode(wedge3_embed(r)) == r


@pytest.mark.parametrize("g", range(1, 6))
def test_cancelling_results_are_zero(g):
    rng = random.Random(600 + g)
    w, r = rand_wedge2(rng, g), rand_wedge3(rng, g)
    for x in (w, r):
        zero = type(x).zero(g)
        assert x + (-x) == zero
        assert x - x == zero
        assert 0 * x == zero
        assert (x + (-x)).is_zero()


def test_lambda3_action_with_cancelling_terms():
    # R: a2 -> a2 + a1 and b1 -> b1 - b2.  Then R(a2^a3^b3 - a1^a3^b3) =
    # a2^a3^b3, the a1^a3^b3 terms from the two first indices cancelling.
    rows = [[int(p == q) for q in range(6)] for p in range(6)]
    rows[0][1] = 1
    rows[4][3] = -1
    R = SymplecticMatrix(rows)
    r = Wedge3(3, {(2, 3, 6): 2, (1, 3, 6): -2})
    image = wedge3_sp_action(R, r)
    assert image == Wedge3.basis(3, 2, 3, 6)
    assert_canonical(image)


@pytest.mark.parametrize("g", range(1, 6))
def test_vector_and_matrix_operations_stay_canonical(g):
    rng = random.Random(700 + g)
    R, S = rand_symplectic(rng, g), rand_symplectic(rng, g)
    A = IntMatrix(R.rows)
    u, v = rand_vector(rng, g), rand_vector(rng, g)
    for x in (u + v, u - v, -u, 0 * u, 3 * u, R * u, A * v):
        assert_canonical_vector(x)
    trusted = (R * S, R.inverse(), symplectic_inverse(S))
    for M in trusted:
        assert type(M) is SymplecticMatrix
    for M in (*trusted, A * R, R * A, -A):
        assert_canonical_matrix(M)
    assert R * R.inverse() == IntMatrix.identity(g)


@pytest.mark.parametrize("g", range(1, 6))
def test_columns_match_the_rows_and_the_odd_set_slot_is_ignored(g):
    rng = random.Random(750 + g)
    R, S = rand_symplectic(rng, g), rand_symplectic(rng, g)
    A = IntMatrix(R.rows)
    for M in (R, S):
        canonical_lift(M)
        assert M._odd_E is not None  # matrices with a filled slot
    results = (R * S, A * R, R * A, R.inverse(), symplectic_inverse(S), -A, -R,
               SymplecticMatrix.identity(g),
               transvection(rand_vector(rng, g, bound=1)), decode_symplectic(encode_matrix(S)))
    for M in (R, S, A, *results):
        cols = tuple(zip(*M.rows))
        assert M._cols() == cols
        # the slot takes no part in equality, hashing or repr
        bare = type(M)._of(M.rows)
        assert M == bare and hash(M) == hash(bare) and repr(M) == repr(bare)


def closed_results(name, rng, g):
    """The results of the closed operations that build through name's _of."""
    f, f2 = rand_member(rng, g), rand_member(rng, g)
    p, q = rand_pi_point(rng, g), rand_pi_point(rng, g)
    m, m2 = (HomHW2(rand_wedge2(rng, g, bound=1) for _ in range(2 * g)) for _ in range(2))
    e, e2 = rng.sample(catalog_specs(g), 2)
    return {
        "EndomorphismSpec": lambda: [endo_compose(e, e2), endo_compose(e2, e)],
        "Phi2Element": lambda: [phi2_eval_word(rand_word(rng, g)), phi2_mul(p, q), phi2_inv(p),
                                act_on_phi2(f, p)],
        "Rho2Element": lambda: [rho2_mul(f, f2), rho2_inv(f), tau2_from_endo(endo_compose(e, e2))],
        "HomHW2": lambda: [m.precompose(f.R), m + m2, m - m2, wedge3_embed(f.r),
                           sp_action_on_hom(f.R, m)],
    }[name]()


REBUILD = {  # a value rebuilt through its public constructors
    "EndomorphismSpec": lambda e: EndomorphismSpec(e.genus, (FreeWord(w.genus, w.letters)
                                                             for w in e.images)),
    "Phi2Element": lambda p: Phi2Element(Wedge2(p.genus, dict(p.eta._twice)), HVector(p.y.coeffs)),
    "Rho2Element": lambda f: Rho2Element(Wedge3(f.genus, dict(f.r._twice)),
                                         SymplecticMatrix(f.R.rows)),
    "HomHW2": lambda m: HomHW2(Wedge2(w.genus, dict(w._twice)) for w in m.images),
}


@pytest.mark.parametrize("name", REBUILD)
def test_trusted_results_equal_their_validated_rebuilds(name):
    rng = random.Random(820)
    for g in (2, 3):
        for x in closed_results(name, rng, g):
            assert type(x).__name__ == name
            assert REBUILD[name](x) == x and x.genus == g


def test_the_kept_table_is_ignored_and_holds_the_reduced_signed_images():
    e = EndomorphismSpec.from_letter_lists(2, [[1, 2, -2], [-3, 3, 2, 1, -1], [], [4, -1, 1]])
    bare = EndomorphismSpec(2, e.images)
    assert e._table is None
    endo_apply(e, FreeWord(2, [1, -2]))
    endo_compose(e, EndomorphismSpec.from_letter_lists(2, [[3], [-4, 1], [1], [2]]))
    assert e == bare and hash(e) == hash(bare) and repr(e) == repr(bare)
    used = {1, -2, 3, -4, 2}
    for s in (-4, -3, -2, -1, 1, 2, 3, 4):
        image = word_reduce(e.images[abs(s) - 1])
        want = (image if s > 0 else image.inverse()).letters if s in used else None
        assert e._table[s] == want
    assert len(e._table) == 4 * 2 + 1
    assert endo_compose(e, e)._table is None


def test_closed_operations_do_not_revalidate(monkeypatch):
    rng = random.Random(800)
    g = 3
    f, f2 = rand_member(rng, g), rand_member(rng, g)
    p = rand_pi_point(rng, g)
    word = rand_word(rng, g)
    m = wedge3_embed(f.r)
    e, e2 = catalog_specs(g)[:2]
    entry = next(x for x in catalog(g) if x.claimed_handlebody)
    real_symplectic_defect = linalg._symplectic_defect

    def refuse(*args):
        raise AssertionError("validation ran inside a closed operation")

    monkeypatch.setattr(wedge, "_build_twice", refuse)
    monkeypatch.setattr(linalg, "_as_int_tuple", refuse)
    monkeypatch.setattr(linalg, "_symplectic_defect", refuse)  # every M J M~ = J check
    monkeypatch.setattr(words, "_check_letters", refuse)
    for module in (linalg, wedge, words):  # every image-list check
        monkeypatch.setattr(module, "_check_images", refuse)

    rho2_mul(f, f2)
    rho2_inv(f)
    act_on_phi2(f, p)
    phi2_mul(p, p)
    phi2_inv(p)
    for hom in (m + m, m - m, m.precompose(f.R), sp_action_on_hom(f.R, m)):
        assert hom.genus == g
    compute_E(f.R)
    canonical_lift(f2.R)
    mcg_membership(f)
    handlebody_membership(f)
    preserves_phi2_b(f)
    assert wedge3_decode(m) == f.r
    phi2_eval_word(word)
    endo_apply(e, word)
    endo_compose(e, e2)
    assert word_reduce(word * word.inverse()).letters == ()
    boundary_word(g)

    # R computed from words must still pass M J M~ = J, but its integers,
    # computed by the words layer, are not checked again
    monkeypatch.setattr(linalg, "_symplectic_defect", real_symplectic_defect)
    tau2_from_endo(e)
    assert validate_entry(entry).passed

    # nor do the pair constructors' own checks run: the types and genus agreement
    monkeypatch.setattr(phi2, "_check_genus", refuse)
    monkeypatch.setattr(rho2, "_check_genus", refuse)
    for op, args in [(rho2_mul, (f, f2)), (rho2_inv, (f,)), (act_on_phi2, (f, p)),
                     (phi2_mul, (p, p)), (phi2_inv, (p,)), (phi2_eval_word, (word,)),
                     (tau2_from_endo, (endo_compose(e, e2),))]:
        assert op(*args).genus == g


def test_decoders_validate_each_value_once(monkeypatch):
    """The decoders check only a document's shape; the constructor checks each
    vector, row, word, wedge document and M J M~ = J in one call, and the
    constructor of a pair or an endomorphism checks that the genera agree."""
    rng = random.Random(810)
    g = 3
    f = rand_member(rng, g)
    p = rand_pi_point(rng, g)
    word = rand_word(rng, g)
    e = catalog_specs(g)[0]
    calls = {}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(linalg, "_as_int_tuple")
    counted(linalg, "_symplectic_defect")
    counted(words, "_check_letters")
    counted(wedge, "_build_twice")
    unsorted = {"genus": g, "terms": [{"idx": [2, 1, 3], "twice": 4},
                                      {"idx": [1, 1, 2], "twice": 1}]}
    for decode, doc, want, value in [
        (decode_hvector, encode_hvector(p.y), {"_as_int_tuple": 1}, p.y),
        (decode_symplectic, encode_matrix(f.R), {"_as_int_tuple": 2 * g,
                                                 "_symplectic_defect": 1}, f.R),
        (decode_word, encode_word(word), {"_check_letters": 1}, word),
        (decode_wedge2, encode_wedge2(p.eta), {"_build_twice": 1}, p.eta),
        (decode_wedge3, encode_wedge3(f.r), {"_build_twice": 1}, f.r),
        # unsorted and repeated indices, signed by the constructor
        (decode_wedge3, unsorted, {"_build_twice": 1}, Wedge3(g, {(1, 2, 3): -4})),
        (decode_phi2, encode_phi2(p), {"_build_twice": 1, "_as_int_tuple": 1}, p),
        (decode_rho2, encode_rho2(f), {"_build_twice": 1, "_as_int_tuple": 2 * g,
                                       "_symplectic_defect": 1}, f),
        (decode_endo, encode_endo(e), {"_check_letters": 2 * g}, e),
    ]:
        calls.clear()
        decoded = decode(doc)
        assert calls == want, decode.__name__
        assert decoded == value


@pytest.mark.parametrize("decode, doc, build", [
    (decode_phi2, {"eta": encode_wedge2(Wedge2.zero(2)), "y": encode_hvector(zero_vector(3))},
     lambda: Phi2Element(Wedge2.zero(2), zero_vector(3))),
    (decode_rho2, {"r": encode_wedge3(Wedge3.zero(3)), "R": encode_matrix(make_J(2))},
     lambda: Rho2Element(Wedge3.zero(3), SymplecticMatrix(make_J(2).rows))),
    (decode_endo, {"genus": 1, "images": [{"genus": 2, "letters": [1]}, [2]]},
     lambda: EndomorphismSpec(1, (FreeWord(2, [1]), FreeWord(1, [2])))),
])
def test_constructors_check_genus_agreement_for_the_decoders(decode, doc, build):
    with pytest.raises(GenusMismatch) as got:
        decode(doc)
    with pytest.raises(GenusMismatch) as want:
        build()
    assert str(got.value) == str(want.value)
    assert got.traceback[-1].path != Path(jsonio.__file__)
