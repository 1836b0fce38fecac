"""The structure-aware Sp kernels against their definitions.

wedge2_sp_action goes through Lambda^2 R.  wedge3_sp_action packs vectors
into big ints of W-bit fields (Kronecker substitution), W set by a bound on the
largest field and rounded up to a width class (1, 2 or 4 bytes, or a multiple
of 8); the tests below put that field next to a byte boundary and next to the
edge of each class, and put the bound of dense inputs just past a class edge.
The oracles in helpers expand every term by minors.  symplectic_check and
symplectic_inverse apply J as a signed block swap; the oracles multiply by J
or check the g x g block identities.  compute_E is compared with its defining
triple-product formula.

act_on_phi2 sums R(eta + kappa(y)) - kappa(Ry) + r(Ry) in one dense array,
and the matrix keeps the set of triples with E_ijk odd, not the exact map of
compute_E; the tests below compare both with the full computation, term by
term.  The matrix products are
compared with the triple loop on entries beyond 2^64.
"""

import itertools
import random

import pytest

from jmrep import (
    GenusMismatch,
    HVector,
    IntMatrix,
    NotSymplectic,
    Phi2Element,
    Rho2Element,
    SymplecticMatrix,
    Wedge2,
    Wedge3,
    act_on_phi2,
    canonical_lift,
    compute_E,
    mcg_membership,
    symplectic_check,
    symplectic_inverse,
    transvection,
    wedge2_sp_action,
    wedge3_sp_action,
    zero_vector,
)
from helpers import (
    block_constraints,
    rand_nonzero_vector,
    rand_phi2,
    rand_symplectic,
    rand_wedge2,
    rand_wedge3,
    ref_act_on_phi2,
    ref_compute_E,
    ref_J,
    ref_matmul,
    ref_matvec,
    ref_symplectic_form,
    ref_symplectic_inverse,
    ref_wedge2_sp_action,
    ref_wedge3_sp_action,
)

ACTIONS = {2: (wedge2_sp_action, rand_wedge2), 3: (wedge3_sp_action, rand_wedge3)}


def twist_matrix(rng, g):
    """A sparse symplectic (I 0; S I) with S symmetric: one diagonal entry of S,
    or one cross-handle pair S_ij = S_ji."""
    n = 2 * g
    rows = [[int(p == q) for q in range(n)] for p in range(n)]
    i, j = rng.randrange(g), rng.randrange(g)
    e = rng.choice((-1, 1))
    rows[g + i][j] = rows[g + j][i] = e
    return SymplecticMatrix(rows)


def sparse_wedge(rng, g, k, count=2):
    """At most `count` terms of arity k; zero when there are no k-tuples (k = 3, g = 1)."""
    tuples = list(itertools.combinations(range(1, 2 * g + 1), k))
    picks = rng.sample(tuples, min(count, len(tuples)))
    return {2: Wedge2, 3: Wedge3}[k](g, {t: rng.choice((-3, -1, 1, 2)) for t in picks})


@pytest.mark.parametrize("g", range(1, 7))
def test_kernels_match_the_minor_expansion(g):
    rng = random.Random(100 + g)
    dense_rounds = 3 if g <= 4 else 1
    cases = [(twist_matrix(rng, g), sparse_wedge(rng, g, 2), sparse_wedge(rng, g, 3))
             for _ in range(3)]
    cases += [(rand_symplectic(rng, g, length=6), rand_wedge2(rng, g), rand_wedge3(rng, g))
              for _ in range(dense_rounds)]
    one_term = [Wedge2(g, {p: t}) for p in itertools.combinations(range(1, 2 * g + 1), 2)
                for t in (1, -2)]
    for R, w, r in cases:
        # the dense form, then zero, every one-term form and a two-term form
        for form in (w, Wedge2.zero(g), *one_term, sparse_wedge(rng, g, 2)):
            assert wedge2_sp_action(R, form) == ref_wedge2_sp_action(R, form)
        assert wedge3_sp_action(R, r) == ref_wedge3_sp_action(R, r)
        if g == 1:
            assert r.is_zero() and wedge3_sp_action(R, r).is_zero()


# (m, t) with R = m I and one term t: the one nonzero field is m^3 t, half of
# the bound F = 2 m^3 |t| that sets the width.  F lies just below 2^23 or 2^135
# (its top bit the highest a width allows) or just above (one byte more);
# m = 0 leaves no live row.
BOUNDARY_CASES = [(161, 1), (161, -1), (162, 1), (162, -1), (2 ** 30 - 1, -(2 ** 44 - 1)),
                  (-(2 ** 30 - 1), 2 ** 44 - 1), (2 ** 30, 2 ** 44), (2 ** 30, -(2 ** 44)), (0, 5)]


@pytest.mark.parametrize("m, t", BOUNDARY_CASES)
def test_the_largest_field_next_to_the_width_bound(m, t):
    assert (2 * abs(m) ** 3 * abs(t)).bit_length() % 8 in (7, 0)
    g = 3
    R = IntMatrix([[m * (p == q) for q in range(2 * g)] for p in range(2 * g)])
    for key in ((1, 2, 3), (2, 4, 6), (4, 5, 6)):
        r = Wedge3(g, {key: t})
        assert wedge3_sp_action(R, r) == Wedge3(g, {key: m ** 3 * t}) == ref_wedge3_sp_action(R, r)


# (g, M, bits): dense worst cases, every entry of R is +-M and every triple of r
# has the coefficient +-(2^24 + 1), so F = 2 M^3 sum|t| has the given bit
# length.  35 and 71 lie just past the top of the 4- and 8-byte classes, so a
# width one class narrower overflows; M = 2^31 - 1 is the largest entry tested.
# Lambda^3 H = 0 at g = 1, so the cases start at g = 2.
DENSE_CASES = [(2, 6, 35), (3, 3, 35), (2, 26007, 71), (3, 15209, 71),
               (2, 2 ** 31 - 1, 121), (3, 2 ** 31 - 1, 123)]


@pytest.mark.parametrize("g, M, bits", DENSE_CASES)
def test_dense_fields_at_the_width_bound_match_the_minor_expansion(g, M, bits):
    rng, n, t = random.Random(0), 2 * g, 2 ** 24 + 1
    R = IntMatrix([[rng.choice((M, -M)) for _ in range(n)] for _ in range(n)])
    r = Wedge3(g, {key: rng.choice((t, -t)) for key in itertools.combinations(range(1, n + 1), 3)})
    assert (2 * M ** 3 * t * len(r.terms())).bit_length() == bits
    assert wedge3_sp_action(R, r) == ref_wedge3_sp_action(R, r)


# R has the block (m 0 0; 0 m m; 0 -m m) on three indices, so the one
# field of r = t x_i^x_j^x_k under R is 2 m^3 t, as large as the bound F that
# sets the width.  F lies just below 2^e, the top of a width class (2, 4, 8 or
# 16 bytes, the last read as two words), or just past it, with both signs.
EDGE_CASES = [(e, above, sign) for e in (15, 31, 63, 127) for above in (0, 1) for sign in (1, -1)]


@pytest.mark.parametrize("e, above, sign", EDGE_CASES)
def test_the_largest_field_at_each_width_class_edge(e, above, sign):
    m, g = 3, 3
    t = sign * ((2 ** e - 1) // (2 * m ** 3) + above)
    assert (2 * m ** 3 * abs(t)).bit_length() == e + above
    for key in ((1, 2, 3), (2, 4, 6), (4, 5, 6)):
        rows = [[int(p == q) for q in range(2 * g)] for p in range(2 * g)]
        i, j, k = (x - 1 for x in key)
        rows[i][i], rows[j][j], rows[j][k], rows[k][j], rows[k][k] = m, m, m, -m, m
        R, r, want = IntMatrix(rows), Wedge3(g, {key: t}), Wedge3(g, {key: 2 * m ** 3 * t})
        assert wedge3_sp_action(R, r) == want == ref_wedge3_sp_action(R, r)


@pytest.mark.parametrize("g", range(1, 6))
def test_act_on_phi2_at_central_points_matches_the_full_formula(g):
    rng = random.Random(700 + g)
    zero = zero_vector(g)
    for _ in range(3):
        f = Rho2Element(rand_wedge3(rng, g), rand_symplectic(rng, g))
        for eta in (*(sparse_wedge(rng, g, 2, n) for n in (0, 1, 2)), rand_wedge2(rng, g)):
            p = Phi2Element(eta, zero)
            assert act_on_phi2(f, p) == ref_act_on_phi2(f, p)
        p = rand_phi2(rng, g)
        assert act_on_phi2(f, p) == ref_act_on_phi2(f, p)


@pytest.mark.parametrize("g", range(1, 6))
def test_act_on_phi2_at_non_central_points_matches_the_full_formula(g):
    # act_on_phi2 applies Lambda^2 R once, to eta + kappa(y), in the array it
    # reads out; the oracle applies it to eta and to kappa(y) apart
    rng = random.Random(750 + g)
    for _ in range(3):
        R = rand_symplectic(rng, g)
        for f in (Rho2Element(rand_wedge3(rng, g), R), Rho2Element(Wedge3.zero(g), R)):
            for eta in (*(sparse_wedge(rng, g, 2, n) for n in (0, 1, 2)), rand_wedge2(rng, g)):
                p = Phi2Element(eta, rand_nonzero_vector(rng, g))
                assert act_on_phi2(f, p) == ref_act_on_phi2(f, p)


@pytest.mark.parametrize("g", range(1, 5))
def test_zero_forms_map_to_zero_of_their_genus(g):
    rng = random.Random(800 + g)
    R = rand_symplectic(rng, g)
    for act, zero in ((wedge2_sp_action, Wedge2.zero), (wedge3_sp_action, Wedge3.zero)):
        image = act(R, zero(g))
        assert image == zero(g) and image.genus == g
        with pytest.raises(GenusMismatch):
            act(R, zero(g + 1))


@pytest.mark.parametrize("g", range(1, 7))
def test_products_match_the_triple_loop(g):
    # entries beyond 2^64 pin the products as exact
    rng = random.Random(850 + g)
    n, big = 2 * g, 2 ** 70
    for bound in (3, big):
        A, B = ([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
                for _ in range(2))
        v = [rng.randint(-bound, bound) for _ in range(n)]
        assert (IntMatrix(A) * IntMatrix(B)).rows == ref_matmul(A, B)
        assert (IntMatrix(A) * HVector(v)).coeffs == ref_matvec(A, v)
    # symplectic factors with entries beyond 2^64: transvections along big vectors
    S, T = (transvection(HVector([rng.randint(-2 ** 34, 2 ** 34) for _ in range(n)]))
            for _ in range(2))
    assert max(abs(x) for row in S.rows for x in row) > 2 ** 64
    ST = S * T
    assert isinstance(ST, SymplecticMatrix) and ST.rows == ref_matmul(S.rows, T.rows)
    assert symplectic_check(ST)
    rows = [list(row) for row in ST.rows]
    rows[rng.randrange(n)][rng.randrange(n)] += 1
    assert not symplectic_check(IntMatrix(rows))


def test_changing_a_returned_E_map_leaves_the_memo_intact():
    rng = random.Random(900)
    spoilers = (lambda E: E.update({t: e + 1 for t, e in E.items()}), dict.clear)
    for g in (2, 3, 4):
        R = rand_symplectic(rng, g)
        fresh = SymplecticMatrix(R.rows)  # same matrix, its own empty slot
        want_E, want_lift = ref_compute_E(fresh), canonical_lift(fresh)
        want_odd = frozenset(t for t, e in want_E.items() if e % 2)
        for spoil in spoilers:
            spoil(compute_E(R))
            assert canonical_lift(R) == want_lift
            assert mcg_membership(Rho2Element(want_lift.r, R))
            assert compute_E(R) == want_E
        # the slot holds the odd set, immutable, the same for equal rows
        assert R._odd_E == fresh._odd_E == want_odd
        assert type(R._odd_E) is frozenset
        bare = SymplecticMatrix(R.rows)
        compute_E(bare)
        assert bare._odd_E is None


@pytest.mark.parametrize("k", (2, 3))
def test_kernel_composition_and_inverse_laws(k):
    act, rand = ACTIONS[k]
    rng = random.Random(k)
    for g in (1, 2, 3, 4):
        A, B = rand_symplectic(rng, g), rand_symplectic(rng, g)
        x = rand(rng, g)
        assert act(A * B, x) == act(A, act(B, x))
        assert act(A.inverse(), act(A, x)) == x


def perturbations(rng, g, count):
    """Symplectic matrices with one entry moved by +-1 or +-2."""
    n = 2 * g
    for _ in range(count):
        M = rand_symplectic(rng, g, length=5)
        rows = [list(row) for row in M.rows]
        i, j = rng.randrange(n), rng.randrange(n)
        rows[i][j] += rng.choice((-2, -1, 1, 2))
        yield (i + 1, j + 1), IntMatrix(rows)


@pytest.mark.parametrize("g", (1, 2, 3, 4))
def test_symplectic_check_matches_the_definition(g):
    rng = random.Random(200 + g)
    J = ref_J(g)
    n = 2 * g
    mats = [IntMatrix([[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)])
            for _ in range(20)]
    mats += [M for _, M in perturbations(rng, g, 20)]
    mats += [rand_symplectic(rng, g) for _ in range(5)]
    verdicts = [symplectic_check(M) for M in mats]
    assert verdicts == [ref_symplectic_form(M) == J for M in mats]
    assert verdicts == [block_constraints(M).all_hold() for M in mats]
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("g", (1, 2, 3, 4))
def test_symplectic_inverse_matches_the_definition(g):
    rng = random.Random(300 + g)
    for _ in range(8):
        M = rand_symplectic(rng, g)
        inv = symplectic_inverse(M)
        assert isinstance(inv, SymplecticMatrix)
        assert inv.rows == ref_symplectic_inverse(M)
        assert M * inv == IntMatrix.identity(g)


@pytest.mark.parametrize("g", range(1, 6))
def test_compute_E_matches_the_definition(g):
    rng = random.Random(500 + g)
    mats = [rand_symplectic(rng, g) for _ in range(4)]
    # transvections along vectors with entries up to 3, and their products
    for _ in range(4):
        M = SymplecticMatrix.identity(g)
        for _ in range(rng.randint(1, 3)):
            M = M * transvection(rand_nonzero_vector(rng, g, bound=3))
        mats.append(M)
    for M in mats:
        assert compute_E(M) == ref_compute_E(M)


@pytest.mark.parametrize("g", (1, 2, 3))
def test_not_symplectic_names_the_perturbed_pair(g):
    rng = random.Random(400 + g)
    J = ref_J(g)
    n = 2 * g
    named = 0
    for (i, _), M in perturbations(rng, g, 12):
        form = ref_symplectic_form(M)
        bad = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
               if form[a - 1][b - 1] != J[a - 1][b - 1]]
        if not bad:
            SymplecticMatrix(M.rows)
            continue
        a, b = bad[0]
        assert i in (a, b)  # a one-entry change moves only row and column i
        with pytest.raises(NotSymplectic) as info:
            SymplecticMatrix(M.rows)
        assert str(info.value) == (
            f"matrix fails M J M~ = J: entry ({a}, {b}) of M J M~ is "
            f"{form[a - 1][b - 1]}, of J is {J[a - 1][b - 1]}"
        )
        named += 1
    assert named
