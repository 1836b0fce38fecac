import random

import pytest

from jmrep import (
    EndomorphismSpec,
    GenusMismatch,
    HomHW2,
    NotInWedge3,
    NotSymplectic,
    Phi2Element,
    Rho2Element,
    SymplecticMatrix,
    Wedge2,
    Wedge3,
    act_on_phi2,
    basis_vector,
    endo_apply,
    endo_compose,
    mcg_membership,
    morita_shift,
    morita_tau2_prime,
    phi2_eval_word,
    phi2_inv,
    phi2_mul,
    principal_crossed_hom,
    rho2_inv,
    rho2_mul,
    sp_action_on_hom,
    tau2_from_endo,
    tau2_tilde_from_endo,
    transvection,
    wedge3_apply,
    wedge3_embed,
    wedge3_sp_action,
)
from helpers import (
    rand_catalog_product,
    rand_integral_wedge3,
    rand_member,
    rand_phi2,
    rand_symplectic,
    rand_wedge3,
    rand_word,
    ref_morita_shift,
)


def test_mul_and_inv_frozen_cases():
    g = 2
    ident = Rho2Element.identity(g)
    f = rand_member(random.Random(1), g)
    assert rho2_mul(ident, f) == f
    w1, w2 = Wedge3.basis(g, 1, 2, 3), Wedge3(g, {(1, 3, 4): 3})
    I = SymplecticMatrix.identity(g)
    assert rho2_mul(Rho2Element(w1, I), Rho2Element(w2, I)) == Rho2Element(w1 + w2, I)
    assert rho2_inv(Rho2Element(w1, I)) == Rho2Element(-w1, I)
    assert rho2_mul(f, rho2_inv(f)) == ident


_FOREIGN_OPERANDS = {
    "rho2 * phi2": lambda f, p: f * p,
    "phi2 * rho2": lambda f, p: p * f,
    "rho2 * int": lambda f, p: f * 3,
    "rho2_inv(phi2)": lambda f, p: rho2_inv(p),
    "phi2_inv(rho2)": lambda f, p: phi2_inv(f),
    "rho2_mul(rho2, phi2)": lambda f, p: rho2_mul(f, p),
    "phi2_mul(phi2, rho2)": lambda f, p: phi2_mul(p, f),
    "rho2_mul(rho2, int)": lambda f, p: rho2_mul(f, 3),
    "act_on_phi2(phi2, rho2)": lambda f, p: act_on_phi2(p, f),
    "act_on_phi2(rho2, int)": lambda f, p: act_on_phi2(f, 3),
    "act_on_phi2(rho2, rho2)": lambda f, p: act_on_phi2(f, f),
}


@pytest.mark.parametrize("case", _FOREIGN_OPERANDS)
def test_a_foreign_operand_raises_type_error(case):
    rng = random.Random(4)
    f, p = rand_member(rng, 2), rand_phi2(rng, 2)
    with pytest.raises(TypeError):
        _FOREIGN_OPERANDS[case](f, p)


def test_inv_twists_the_fiber():
    g = 2
    T = transvection(basis_vector(g, 3))
    r = Wedge3(g, {(1, 2, 4): 1})
    f = Rho2Element(r, T)
    Tinv = T.inverse()
    assert rho2_inv(f) == Rho2Element(-wedge3_sp_action(Tinv, r), Tinv)


@pytest.mark.parametrize("seed", range(8))
def test_group_laws(seed):
    rng = random.Random(1200 + seed)
    g = rng.choice((2, 3))
    f, h, k = (rand_member(rng, g) for _ in range(3))
    assert rho2_mul(rho2_mul(f, h), k) == rho2_mul(f, rho2_mul(h, k))
    ident = Rho2Element.identity(g)
    assert rho2_mul(f, rho2_inv(f)) == ident
    assert rho2_mul(rho2_inv(f), f) == ident


def test_action_identity_and_frozen_case():
    g = 2
    p = rand_phi2(random.Random(3), g)
    assert act_on_phi2(Rho2Element.identity(g), p) == p
    f = Rho2Element(Wedge3.basis(g, 1, 2, 3), SymplecticMatrix.identity(g))
    q = Phi2Element(Wedge2.zero(g), basis_vector(g, 1))
    assert act_on_phi2(f, q) == Phi2Element(Wedge2(g, {(1, 2): 2}), basis_vector(g, 1))


def test_action_with_integral_fiber_at_identity():
    rng = random.Random(5)
    g = 2
    w = rand_integral_wedge3(rng, g)
    y = basis_vector(g, 2)
    f = Rho2Element(w, SymplecticMatrix.identity(g))
    q = Phi2Element(Wedge2.zero(g), y)
    assert act_on_phi2(f, q) == Phi2Element(wedge3_apply(w, y), y)


@pytest.mark.parametrize("seed", range(6))
def test_action_is_a_group_action(seed):
    rng = random.Random(1300 + seed)
    g = rng.choice((2, 3))
    f, h = rand_member(rng, g), rand_member(rng, g)
    p = rand_phi2(rng, g)
    assert act_on_phi2(rho2_mul(f, h), p) == act_on_phi2(f, act_on_phi2(h, p))
    # the action respects the group law on points
    q = rand_phi2(rng, g)
    from jmrep import phi2_mul

    assert act_on_phi2(f, phi2_mul(p, q)) == phi2_mul(act_on_phi2(f, p), act_on_phi2(f, q))


def test_tau2_tilde_identity_and_twist():
    g = 2
    ident = EndomorphismSpec.identity(g)
    W, R = tau2_tilde_from_endo(ident)
    assert W.is_zero()
    assert R == SymplecticMatrix.identity(g)
    twist = EndomorphismSpec.from_letter_lists(g, [[1, 3], [2], [3], [4]])
    W, R = tau2_tilde_from_endo(twist)
    assert R == transvection(basis_vector(g, 3))
    assert W.images[0] == Wedge2(g, {(1, 3): 1})
    for n in (2, 3, 4):
        assert W.images[n - 1].is_zero()


def test_tau2_tilde_picks_up_commutator_prefix():
    g = 2
    e = EndomorphismSpec.from_letter_lists(g, [[1, 3, -1, -3, 1], [2], [3], [4]])
    W, R = tau2_tilde_from_endo(e)
    assert R == SymplecticMatrix.identity(g)
    assert W.images[0] == Wedge2(g, {(1, 3): 2})


def test_tau2_tilde_rejects_non_symplectic_abelianization():
    g = 2
    e = EndomorphismSpec.from_letter_lists(g, [[1, 1], [2], [3], [4]])
    with pytest.raises(NotSymplectic):
        tau2_tilde_from_endo(e)


def test_tau2_frozen_cases():
    g = 2
    assert tau2_from_endo(EndomorphismSpec.identity(g)) == Rho2Element.identity(g)
    twist = EndomorphismSpec.from_letter_lists(g, [[1, 3], [2], [3], [4]])
    assert tau2_from_endo(twist) == Rho2Element(
        Wedge3.zero(g), transvection(basis_vector(g, 3))
    )


def test_tau2_of_global_conjugation_is_integral_over_identity():
    g = 2
    w = [1, 3, -1, -3]
    inv = [-s for s in reversed(w)]
    e = EndomorphismSpec.from_letter_lists(g, [w + [k] + inv for k in range(1, 5)])
    f = tau2_from_endo(e)
    assert f.R == SymplecticMatrix.identity(g)
    assert f.r.is_integral()


def test_tau2_rejects_non_boundary_inner_automorphism():
    g = 2
    e = EndomorphismSpec.from_letter_lists(
        g, [[1, k, -1] if k != 1 else [1] for k in range(1, 5)]
    )
    with pytest.raises(NotInWedge3):
        tau2_from_endo(e)


def test_tau2_of_a_genus_five_twist():
    g = 5
    # b_i -> b_i a_i for every handle, all other generators fixed
    images = [[k] for k in range(1, g + 1)] + [[g + i, i] for i in range(1, g + 1)]
    e = EndomorphismSpec.from_letter_lists(g, images)
    f = tau2_from_endo(e)
    assert mcg_membership(f)
    assert f.R == e.abelianization()


@pytest.mark.parametrize("seed", range(4))
def test_tau2_matches_word_action(seed):
    rng = random.Random(1400 + seed)
    g = rng.choice((2, 3))
    e = rand_catalog_product(rng, g, max_factors=4)
    f = tau2_from_endo(e)
    w = rand_word(rng, g, 10)
    assert act_on_phi2(f, phi2_eval_word(w)) == phi2_eval_word(endo_apply(e, w))


@pytest.mark.parametrize("seed", range(4))
def test_tau2_is_a_homomorphism(seed):
    rng = random.Random(1500 + seed)
    g = rng.choice((2, 3))
    e1 = rand_catalog_product(rng, g, max_factors=3)
    e2 = rand_catalog_product(rng, g, max_factors=3)
    lhs = tau2_from_endo(endo_compose(e1, e2, max_letters=10_000))
    rhs = rho2_mul(tau2_from_endo(e1), tau2_from_endo(e2))
    assert lhs == rhs


def test_principal_crossed_hom_frozen_cases():
    g = 2
    m = wedge3_embed(rand_wedge3(random.Random(9), g))
    I = SymplecticMatrix.identity(g)
    assert principal_crossed_hom(m, I).is_zero()
    assert principal_crossed_hom(HomHW2.zero(g), rand_symplectic(random.Random(10), g)).is_zero()


@pytest.mark.parametrize("seed", range(6))
def test_principal_crossed_hom_law(seed):
    rng = random.Random(1600 + seed)
    g = rng.choice((2, 3))
    m = wedge3_embed(rand_wedge3(rng, g))
    R1, R2 = rand_symplectic(rng, g), rand_symplectic(rng, g)
    lhs = principal_crossed_hom(m, R1 * R2)
    rhs = principal_crossed_hom(m, R1) + sp_action_on_hom(R1, principal_crossed_hom(m, R2))
    assert lhs == rhs


def test_morita_shift_frozen_value():
    m = morita_shift(2)
    assert m.terms() == (
        ((1, 2, 3), 1),
        ((1, 2, 4), -1),
        ((1, 3, 4), -1),
        ((2, 3, 4), 1),
    )


@pytest.mark.parametrize("g", range(1, 7))
def test_morita_shift_closed_form_is_the_wedge_sum(g):
    assert morita_shift(g) == ref_morita_shift(g)


def test_morita_comparison_at_identity_fiber():
    g = 2
    w = rand_integral_wedge3(random.Random(12), g)
    f = Rho2Element(w, SymplecticMatrix.identity(g))
    assert morita_tau2_prime(f) == wedge3_embed(w)


@pytest.mark.parametrize("seed", range(5))
def test_morita_difference_is_principal(seed):
    rng = random.Random(1700 + seed)
    g = rng.choice((2, 3))
    f = rand_member(rng, g)
    diff = morita_tau2_prime(f) - wedge3_embed(f.r)
    assert diff == principal_crossed_hom(wedge3_embed(morita_shift(g)), f.R)


def test_rho2_element_genus_mismatch():
    with pytest.raises(GenusMismatch):
        Rho2Element(Wedge3.zero(2), SymplecticMatrix.identity(3))


@pytest.mark.parametrize("g, h", [(1, 2), (2, 3), (3, 2)])
def test_closed_operations_reject_mixed_genera(g, h):
    # the first callee of each operation checks the genera, naming them in order
    rng = random.Random(1800 + 10 * g + h)
    f, f2 = rand_member(rng, g), rand_member(rng, h)
    p, p2 = rand_phi2(rng, g), rand_phi2(rng, h)
    for op, x, y in ((rho2_mul, f, f2), (act_on_phi2, f, p2), (phi2_mul, p, p2),
                     (sp_action_on_hom, f.R, wedge3_embed(f2.r))):
        with pytest.raises(GenusMismatch, match=f"^genus {g} vs {h}$"):
            op(x, y)
