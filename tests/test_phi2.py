import random

import pytest

from jmrep import (
    FreeWord,
    Phi2Element,
    Wedge2,
    basis_vector,
    boundary_word,
    phi2_b_membership,
    phi2_eval_word,
    phi2_inv,
    phi2_mul,
    phi2_pi_membership,
    phi2_word_synthesis,
    word_reduce,
    zero_vector,
)
from helpers import rand_phi2, rand_pi_point, rand_word, ref_phi2_b_membership


def _vec(g, coeffs):
    from jmrep import HVector

    return HVector(tuple(coeffs))


def test_mul_frozen_cases():
    g = 2
    a1 = Phi2Element(Wedge2.zero(g), basis_vector(g, 1))
    b1 = Phi2Element(Wedge2.zero(g), basis_vector(g, 3))
    prod = phi2_mul(a1, b1)
    assert prod == Phi2Element(Wedge2(g, {(1, 3): 1}), _vec(g, (1, 0, 1, 0)))
    x = Phi2Element(Wedge2.zero(g), basis_vector(g, 2))
    assert phi2_mul(x, phi2_inv(x)) == Phi2Element.identity(g)
    # commutator of generator images lands in the center
    comm = phi2_mul(phi2_mul(a1, x), phi2_mul(phi2_inv(a1), phi2_inv(x)))
    assert comm == Phi2Element(Wedge2(g, {(1, 2): 2}), zero_vector(g))


def test_inv_frozen_cases():
    g = 2
    p = Phi2Element(Wedge2(g, {(1, 3): 1}), _vec(g, (1, 0, 1, 0)))
    assert phi2_inv(p) == Phi2Element(Wedge2(g, {(1, 3): -1}), _vec(g, (-1, 0, -1, 0)))
    assert phi2_inv(Phi2Element.identity(g)) == Phi2Element.identity(g)


@pytest.mark.parametrize("seed", range(8))
def test_group_laws(seed):
    rng = random.Random(800 + seed)
    g = rng.choice((2, 3))
    p, q, r = (rand_phi2(rng, g) for _ in range(3))
    assert phi2_mul(phi2_mul(p, q), r) == phi2_mul(p, phi2_mul(q, r))
    e = Phi2Element.identity(g)
    assert phi2_mul(e, p) == p and phi2_mul(p, e) == p
    assert phi2_mul(p, phi2_inv(p)) == e and phi2_mul(phi2_inv(p), p) == e


def test_eval_word_frozen_cases():
    g = 2
    assert phi2_eval_word(FreeWord(g, [1, 3, -1, -3])) == Phi2Element(
        Wedge2(g, {(1, 3): 2}), zero_vector(g)
    )
    assert phi2_eval_word(FreeWord.identity(g)) == Phi2Element.identity(g)
    assert phi2_eval_word(FreeWord(g, [1, 3])) == Phi2Element(
        Wedge2(g, {(1, 3): 1}), _vec(g, (1, 0, 1, 0))
    )


def test_eval_word_of_boundary():
    for g in (1, 2, 3):
        expect = Phi2Element(
            Wedge2(g, {(i, g + i): 2 for i in range(1, g + 1)}), zero_vector(g)
        )
        assert phi2_eval_word(boundary_word(g)) == expect


@pytest.mark.parametrize("seed", range(8))
def test_eval_word_is_reduction_invariant_and_multiplicative(seed):
    rng = random.Random(900 + seed)
    g = rng.choice((2, 3))
    w1, w2 = rand_word(rng, g), rand_word(rng, g)
    assert phi2_eval_word(w1 * w2) == phi2_mul(phi2_eval_word(w1), phi2_eval_word(w2))
    assert phi2_eval_word(word_reduce(w1)) == phi2_eval_word(w1)


def test_pi_membership_frozen_cases():
    g = 2
    assert phi2_pi_membership(
        Phi2Element(Wedge2(g, {(1, 3): 1}), _vec(g, (1, 0, 1, 0)))
    )
    assert not phi2_pi_membership(
        Phi2Element(Wedge2.zero(g), _vec(g, (1, 0, 1, 0)))
    )
    assert phi2_pi_membership(
        Phi2Element(Wedge2(g, {(1, 2): 2}), zero_vector(g))
    )


@pytest.mark.parametrize("seed", range(10))
def test_pi_membership_closure(seed):
    rng = random.Random(1000 + seed)
    g = rng.choice((2, 3))
    p, q = rand_pi_point(rng, g), rand_pi_point(rng, g)
    assert phi2_pi_membership(p)
    assert phi2_pi_membership(q)
    assert phi2_pi_membership(phi2_mul(p, q))
    assert phi2_pi_membership(phi2_inv(p))


def test_b_membership_frozen_cases():
    g = 2
    assert phi2_b_membership(Phi2Element(Wedge2(g, {(1, 4): 2}), zero_vector(g)))
    assert phi2_b_membership(
        Phi2Element(Wedge2(g, {(3, 4): 1}), _vec(g, (0, 0, 1, 1)))
    )
    assert not phi2_b_membership(Phi2Element(Wedge2(g, {(1, 2): 2}), zero_vector(g)))
    # a-part in the vector is disqualifying
    assert not phi2_b_membership(Phi2Element(Wedge2.zero(g), basis_vector(g, 1)))
    # a^b coefficients must be integral
    assert not phi2_b_membership(Phi2Element(Wedge2(g, {(1, 4): 1}), zero_vector(g)))


def test_b_membership_implies_pi_membership():
    rng = random.Random(23)
    g = 2
    hits = 0
    for _ in range(200):
        p = rand_phi2(rng, g, bound=2)
        if phi2_b_membership(p):
            hits += 1
            assert phi2_pi_membership(p)
    assert hits > 0


def _b_candidate(rng, g):
    """A point near phi_2(b): y has no a-part half the time, eta has the parities
    of phi2_pi_membership, its a^a terms are dropped 70% of the time, and one
    coefficient's parity is flipped 20% of the time."""
    n = 2 * g
    l = [rng.randint(-2, 2) if i >= g or rng.random() < 0.5 else 0 for i in range(n)]
    drop_aa = rng.random() < 0.7
    eta = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if not (drop_aa and j <= g):
                eta[(i, j)] = l[i - 1] * l[j - 1] + 2 * rng.randint(-1, 1)
    if rng.random() < 0.2:
        eta[rng.choice(sorted(eta))] += 1  # eta always holds the a_1^b_1 pair
    return Phi2Element(Wedge2(g, eta), _vec(g, l))


@pytest.mark.parametrize("g", range(1, 6))
def test_b_membership_matches_the_condition_by_condition_oracle(g):
    rng = random.Random(1200 + g)
    verdicts = []
    for _ in range(400):
        p = _b_candidate(rng, g)
        verdicts.append(phi2_b_membership(p))
        assert verdicts[-1] == ref_phi2_b_membership(p), p
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("seed", range(10))
def test_word_synthesis_reaches_members(seed):
    rng = random.Random(1100 + seed)
    g = rng.choice((2, 3))
    p = rand_pi_point(rng, g)
    w = phi2_word_synthesis(p)
    assert phi2_eval_word(w) == p


def test_word_synthesis_rejects_non_members():
    g = 2
    bad = Phi2Element(Wedge2.zero(g), _vec(g, (1, 0, 1, 0)))
    with pytest.raises(ValueError):
        phi2_word_synthesis(bad)
