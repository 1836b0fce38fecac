import itertools
import random

import pytest

from jmrep import (
    HVector,
    Rho2Element,
    SymplecticMatrix,
    Wedge3,
    basis_vector,
    canonical_lift,
    compute_E,
    handlebody_failures,
    handlebody_membership,
    handlebody_sp_check,
    make_J,
    mcg_membership,
    preserves_phi2_b,
    rho2_inv,
    rho2_mul,
    torelli_handlebody_basis,
    transvection,
)
from helpers import (
    rand_integral_wedge3,
    rand_member,
    rand_symplectic,
    rand_wedge3,
    ref_preserves_phi2_b,
)


def test_compute_E_identity_is_zero():
    for g in (2, 3):
        E = compute_E(SymplecticMatrix.identity(g))
        assert set(E) == set(itertools.combinations(range(1, 2 * g + 1), 3))
        assert all(v == 0 for v in E.values())


def test_compute_E_transvection_is_zero():
    T = transvection(basis_vector(2, 3))
    assert all(v == 0 for v in compute_E(T).values())


def test_compute_E_cross_transvection_frozen_values():
    X = transvection(basis_vector(2, 3) + basis_vector(2, 4))
    E = compute_E(X)
    assert {t: v for t, v in E.items() if v} == {(1, 3, 4): -1, (2, 3, 4): 1}


def test_compute_E_is_genus_uniform():
    rng = random.Random(19)
    R2 = rand_symplectic(rng, 2)
    remap = {1: 1, 2: 2, 3: 4, 4: 5}
    rows = [[0] * 6 for _ in range(6)]
    for i in range(6):
        rows[i][i] = 1
    for a in range(1, 5):
        for b in range(1, 5):
            rows[remap[a] - 1][remap[b] - 1] = R2.rows[a - 1][b - 1]
    R3 = SymplecticMatrix(tuple(tuple(r) for r in rows))
    E2, E3 = compute_E(R2), compute_E(R3)
    for t, v in E2.items():
        t3 = tuple(sorted(remap[i] for i in t))
        assert E3[t3] == v
    for t, v in E3.items():
        if 3 in t or 6 in t:
            assert v == 0


def test_mcg_membership_fiber_over_identity():
    g = 3
    I = SymplecticMatrix.identity(g)
    w = rand_integral_wedge3(random.Random(21), g)
    assert mcg_membership(Rho2Element(w, I))
    half = Wedge3(g, {(1, 2, 3): 1})
    assert not mcg_membership(Rho2Element(half, I))


@pytest.mark.parametrize("seed", range(8))
def test_canonical_lift_is_member_with_small_fiber(seed):
    rng = random.Random(1800 + seed)
    g = rng.choice((2, 3))
    R = rand_symplectic(rng, g)
    lift = canonical_lift(R)
    assert lift.R == R
    assert mcg_membership(lift)
    assert all(t in (0, 1) for _, t in lift.r.terms())


@pytest.mark.parametrize("seed", range(8))
def test_membership_is_a_coset_condition(seed):
    rng = random.Random(1900 + seed)
    g = rng.choice((2, 3))
    R = rand_symplectic(rng, g)
    lift = canonical_lift(R)
    r = rand_wedge3(rng, g)
    assert mcg_membership(Rho2Element(r, R)) == (r - lift.r).is_integral()


@pytest.mark.parametrize("seed", range(6))
def test_accepted_set_is_closed_under_the_group_law(seed):
    rng = random.Random(2000 + seed)
    g = rng.choice((2, 3))
    f, h = rand_member(rng, g), rand_member(rng, g)
    assert mcg_membership(f) and mcg_membership(h)
    assert mcg_membership(rho2_mul(f, h))
    assert mcg_membership(rho2_inv(f))


def test_handlebody_sp_check_frozen_cases():
    assert handlebody_sp_check(SymplecticMatrix.identity(2))
    assert not handlebody_sp_check(SymplecticMatrix(make_J(2).rows))
    assert handlebody_sp_check(transvection(basis_vector(2, 3)))
    assert not handlebody_sp_check(transvection(basis_vector(2, 1)))


def test_handlebody_membership_frozen_cases():
    g = 3
    I = SymplecticMatrix.identity(g)
    assert handlebody_membership(Rho2Element(Wedge3.basis(g, 4, 5, 6), I))
    bad = Rho2Element(Wedge3.basis(g, 1, 2, 3), I)
    assert not handlebody_membership(bad)
    assert handlebody_failures(bad) == ("condition 3",)
    assert handlebody_failures(Rho2Element(Wedge3.zero(g), SymplecticMatrix(make_J(g).rows))) == (
        "condition 1",
    )
    half_b = Rho2Element(Wedge3(g, {(4, 5, 6): 1}), I)
    assert handlebody_failures(half_b) == ("condition 2",)


def test_torelli_handlebody_basis_structure():
    g = 3
    basis = torelli_handlebody_basis(g)
    # one triple type from each of b^3, a b^2, a^2 b
    assert len(basis) == 1 + 3 * 3 + 3 * 3
    seen = {f.r.terms()[0][0] for f in basis}
    assert (4, 5, 6) in seen
    for f in basis:
        assert f.R == SymplecticMatrix.identity(g)
        ((triple, twice),) = f.r.terms()
        assert twice == 2
        assert not all(i <= g for i in triple)
        assert handlebody_membership(f)


def test_preserves_phi2_b_frozen_cases():
    g = 3
    I = SymplecticMatrix.identity(g)
    assert preserves_phi2_b(Rho2Element(Wedge3.zero(g), I))
    assert preserves_phi2_b(Rho2Element(Wedge3.basis(g, 4, 5, 6), I))
    assert not preserves_phi2_b(Rho2Element(Wedge3.basis(g, 1, 2, 3), I))


@pytest.mark.parametrize("seed", range(6))
def test_preserves_phi2_b_matches_theorem_on_members(seed):
    rng = random.Random(2100 + seed)
    g = rng.choice((2, 3))
    # block-triangular member: product of b-type transvections, shifted fiber
    R = SymplecticMatrix.identity(g)
    for _ in range(rng.randint(1, 6)):
        i = rng.randint(1, g)
        j = rng.randint(1, g)
        v = basis_vector(g, g + i) + (basis_vector(g, g + j) if j != i else basis_vector(g, g + i))
        R = R * transvection(v)
    f = rand_member(rng, g, R=R)
    assert handlebody_membership(f) == preserves_phi2_b(f)


def rand_handlebody_matrix(rng, g):
    """A block-triangular R = (S 0; P Q): b-type transvections x -> x + <x, v> v
    with v in span(b), and block-diagonal diag(E, E^-~) with E = I + c e_ij."""
    n = 2 * g
    R = SymplecticMatrix.identity(g)
    for _ in range(rng.randint(1, 6)):
        if g > 1 and rng.random() < 0.5:
            i, j = rng.sample(range(g), 2)
            c = rng.choice((-2, -1, 1, 2))
            rows = [[int(p == q) for q in range(n)] for p in range(n)]
            rows[i][j] = c  # E = I + c e_ij in the a-block
            rows[g + j][g + i] = -c  # E^-~ = I - c e_ji in the b-block
            R = R * SymplecticMatrix(rows)
        else:
            v = [0] * g + [rng.randint(-1, 1) for _ in range(g)]
            if any(v):
                R = R * transvection(HVector(v))
    assert handlebody_sp_check(R)
    return R


def no_aaa(r):
    """r without its a^a^a terms (triples with k <= g)."""
    return Wedge3(r.genus, {t: c for t, c in r.terms() if t[2] > r.genus})


@pytest.mark.parametrize("g", range(1, 6))
def test_one_direction_phi2_b_check_matches_both_directions(g):
    rng = random.Random(2200 + g)
    triples = list(itertools.combinations(range(1, 2 * g + 1), 3))
    cases = []
    for _ in range(4):
        Rh = rand_handlebody_matrix(rng, g)
        cases.append(Rho2Element(rand_wedge3(rng, g), Rh))
        member = Rho2Element(canonical_lift(Rh).r + no_aaa(rand_integral_wedge3(rng, g)), Rh)
        cases.append(member)
        if triples:  # one odd triple breaks the E-parity of a member
            cases.append(Rho2Element(member.r + Wedge3(g, {rng.choice(triples): 1}), Rh))
        R = rand_symplectic(rng, g)
        cases.append(canonical_lift(R))
        few = rng.sample(triples, min(2, len(triples)))  # accepted or not, by the terms drawn
        cases.append(Rho2Element(Wedge3(g, {t: rng.choice((1, 2, -2)) for t in few}),
                                 SymplecticMatrix.identity(g)))
    verdicts = [preserves_phi2_b(f) for f in cases]
    assert verdicts == [ref_preserves_phi2_b(f) for f in cases]
    assert any(verdicts) and not all(verdicts)
