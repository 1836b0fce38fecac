"""Properties over hypothesis-drawn inputs at g = 1..6 (strategies.py).

The E-parity path (membership._odd_E: rows mod 2 as bit masks, one popcount
per triple) is compared with the exact definition in helpers.ref_compute_E,
and the packed Lambda^3 action wedge3_sp_action with the minor expansion in
helpers.ref_wedge3_sp_action, on transvection products with negative entries
and with entries beyond 2^64.  The action must also commute with the
embedding into Hom(H, (1/2)W2(H)), and rho2_mul must be a group law.
act_on_phi2, which sums its terms in one dense array, is compared with
helpers.ref_act_on_phi2, which adds them up as wedges, and with the laws of
a left action by automorphisms of Phi_2.
"""

import pytest
from hypothesis import given, strategies as st

from jmrep import (
    Rho2Element,
    Wedge3,
    act_on_phi2,
    canonical_lift,
    phi2_mul,
    rho2_inv,
    rho2_mul,
    sp_action_on_hom,
    wedge3_apply,
    wedge3_embed,
    wedge3_sp_action,
)
from jmrep.membership import _odd_E, mcg_odd_triples
from helpers import ref_act_on_phi2, ref_compute_E, ref_wedge3_apply, ref_wedge3_sp_action
from strategies import PROFILE, genera, phi2_points, symplectic_matrices, wedge3s


def ref_odd_E(R) -> set:
    return {t for t, e in ref_compute_E(R).items() if e % 2}


@pytest.mark.parametrize("g", range(1, 7))
@PROFILE
@given(data=st.data())
def test_odd_E_is_exact_E_mod_2(g, data):
    R = data.draw(symplectic_matrices(st.just(g)))
    assert _odd_E(R) == ref_odd_E(R)


@PROFILE
@given(st.data())
def test_the_membership_witnesses_and_the_lift_follow_exact_E(data):
    R = data.draw(symplectic_matrices())
    r = data.draw(wedge3s(R.genus))
    E = ref_compute_E(R)
    want = sorted(t for t, e in E.items() if (r.twice(*t) - e) % 2)
    assert mcg_odd_triples(Rho2Element(r, R)) == want
    assert canonical_lift(R) == Rho2Element(Wedge3(R.genus, dict.fromkeys(ref_odd_E(R), 1)), R)


@pytest.mark.parametrize("g", range(1, 7))
@PROFILE
@given(data=st.data())
def test_the_packed_action_is_the_minor_expansion(g, data):
    R = data.draw(symplectic_matrices(st.just(g)))
    r = data.draw(wedge3s(g))
    assert wedge3_sp_action(R, r) == ref_wedge3_sp_action(R, r)


@PROFILE
@given(st.data())
def test_the_action_commutes_with_the_embedding(data):
    R = data.draw(symplectic_matrices())
    r = data.draw(wedge3s(R.genus))
    assert sp_action_on_hom(R, wedge3_embed(r)) == wedge3_embed(wedge3_sp_action(R, r))


@PROFILE
@given(st.data())
def test_rho2_mul_is_a_group_law(data):
    # k shares the matrix of f: (f h) k = f (h k) still needs R (S r) = (R S) r
    g = data.draw(genera)
    R, S = (data.draw(symplectic_matrices(st.just(g))) for _ in range(2))
    f, h, k = (Rho2Element(data.draw(wedge3s(g)), M) for M in (R, S, R))
    assert rho2_mul(rho2_mul(f, h), k) == rho2_mul(f, rho2_mul(h, k))
    one = Rho2Element.identity(g)
    assert rho2_mul(one, f) == f == rho2_mul(f, one)
    assert rho2_mul(f, rho2_inv(f)) == one == rho2_mul(rho2_inv(f), f)



@PROFILE
@given(st.data())
def test_act_on_phi2_is_the_sum_of_its_terms(data):
    g = data.draw(genera)
    f = Rho2Element(data.draw(wedge3s(g)), data.draw(symplectic_matrices(st.just(g))))
    p = data.draw(phi2_points(g))
    assert wedge3_apply(f.r, p.y) == ref_wedge3_apply(f.r, p.y)
    assert act_on_phi2(f, p) == ref_act_on_phi2(f, p)


@PROFILE
@given(st.data())
def test_act_on_phi2_is_a_left_action_by_automorphisms(data):
    g = data.draw(genera)
    f, h = (Rho2Element(data.draw(wedge3s(g)), data.draw(symplectic_matrices(st.just(g))))
            for _ in range(2))
    p, q = (data.draw(phi2_points(g)) for _ in range(2))
    assert act_on_phi2(rho2_mul(f, h), p) == act_on_phi2(f, act_on_phi2(h, p))
    assert act_on_phi2(f, phi2_mul(p, q)) == phi2_mul(act_on_phi2(f, p), act_on_phi2(f, q))
