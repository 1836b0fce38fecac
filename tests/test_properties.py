"""Properties over hypothesis-drawn inputs at g = 1..6 (strategies.py).

The E-parity path (membership._odd_E: rows mod 2 as bit masks, one popcount
per triple) is compared with the exact definition in helpers.ref_compute_E,
on transvection products with negative entries and with entries beyond 2^64.
"""

import pytest
from hypothesis import given, strategies as st

from jmrep import Rho2Element, Wedge3, canonical_lift
from jmrep.membership import _odd_E, mcg_odd_triples
from helpers import ref_compute_E
from strategies import PROFILE, symplectic_matrices, wedge3s


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
