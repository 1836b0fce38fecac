"""Hypothesis strategies shared across the property tests.

PROFILE is the one settings profile of the suite: derandomized, with no
example database and no deadline, so every run draws the same examples, and
40 examples a test, which keeps the properties' share of tier-1 time small.
"""

import itertools

from hypothesis import settings, strategies as st

from jmrep import HVector, Phi2Element, SymplecticMatrix, Wedge2, Wedge3, transvection

PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=40)

genera = st.sampled_from(range(1, 7))

# coordinates of a transvection vector: small ones, negatives included, or
# ones of size 2^33..2^35 with either sign; v~J holds both v_b and -v_a, so a
# transvection along such a v has entries of both signs, every one beyond
# 2^64 in size
_SMALL = st.integers(-3, 3)
_HUGE = st.builds(lambda m, neg: -m if neg else m, st.integers(2 ** 33, 2 ** 35), st.booleans())


@st.composite
def symplectic_matrices(draw, genus=genera):
    """A product of one to four transvections x -> x + <x, v> v."""
    g = draw(genus)
    coord = draw(st.sampled_from((_SMALL, _HUGE)))
    vectors = draw(st.lists(st.lists(coord, min_size=2 * g, max_size=2 * g),
                            min_size=1, max_size=4))
    M = SymplecticMatrix.identity(g)
    for v in vectors:
        M = M * transvection(HVector(v))
    return M


def wedge3s(g: int):
    """An element of (1/2)W3(H) at genus g, doubled coefficients up to 2^70 in size."""
    triples = list(itertools.combinations(range(1, 2 * g + 1), 3))
    if not triples:
        return st.just(Wedge3.zero(g))
    coeffs = st.dictionaries(st.sampled_from(triples), st.integers(-2 ** 70, 2 ** 70))
    return coeffs.map(lambda d: Wedge3(g, d))


def phi2_points(g: int):
    """A point (eta, y) of Phi_2 at genus g, doubled coefficients of eta and
    coordinates of y up to 2^70 in size."""
    pairs = list(itertools.combinations(range(1, 2 * g + 1), 2))
    big = st.integers(-2 ** 70, 2 ** 70)
    return st.builds(lambda d, y: Phi2Element(Wedge2(g, d), HVector(y)),
                     st.dictionaries(st.sampled_from(pairs), big),
                     st.lists(big, min_size=2 * g, max_size=2 * g))
