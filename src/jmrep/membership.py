"""Exact characterization of which pairs (r, R) come from mapping classes.

For a symplectic R define, for each triple i < j < k,

    E_ijk = .(row_i(RJ), row_j(R), row_k(R))
          - .(row_i(R), row_j(RJ), row_k(R))
          + .(row_i(R), row_j(R), row_k(RJ))

with .(w, y, z) = sum_n w_n y_n z_n.  A pair (r, R) is the degree-two
value of a mapping class of the one-boundary surface iff every doubled
coefficient of r is congruent to E_ijk mod 2.  In particular the fiber
over R is a coset of the integral lattice W3(H), and canonical_lift
picks the representative with doubled coefficients in {0, 1}.

A pair comes from a mapping class of the handlebody iff additionally the
upper-right g x g block of R vanishes and r has no a^a^a terms.  Dynamically,
these are the pairs whose action on Phi_2 maps phi_2(b), the image of the
loops that bound in the handlebody, onto itself (preserves_phi2_b).

It suffices to check that f = (r, R) maps the g points (0, b_i) into
phi_2(b); neither the central generators (a_i^b_j, 0), (b_i^b_j, 0) of phi_2(b)
nor f^-1 need be checked:

- The images of the (0, b_i) put each R b_i in B = span(b_1..b_g).  R maps the
  rational span of B onto itself, R^-1 is integral, and B holds every integral
  point of its span, so R(B) = B and the upper-right block of R vanishes.
- Then R a_i and R b_j are integral and R b_j lies in B, so Lambda^2 R maps
  a_i^b_j and b_i^b_j to integral forms in H^B: no a^a term, integral a^b and
  b^b coefficients.  Those are in L = {eta : (eta, 0) in phi_2(b)}, so the
  central generators map into phi_2(b) without a check.  Lambda^2 R maps the
  span of L onto itself, Lambda^2 R^-1 is integral, and L holds every integral
  point of its span, so Lambda^2 R(L) = L.
- Hence f(phi_2(b)) contains the central part of phi_2(b) and elements over
  every y in B, so f(phi_2(b)) = phi_2(b).

The theorem reads E only mod 2, where the signs vanish: with r_i the bits of
row i of R mod 2 and s_i those of row i of RJ (the block swap of r_i),
E_ijk = popcount(((s_i & r_j) ^ (r_i & s_j)) & r_k ^ (r_i & r_j) & s_k) mod 2.
The set of odd triples depends on R alone, so _odd_E keeps it in R's
private slot _odd_E (see linalg): a lift and the membership tests after it on
one matrix share it.  compute_E gives the exact integers and keeps nothing.
"""

from __future__ import annotations

import itertools
from operator import mul

from .linalg import SymplecticMatrix, _require_genus, _vJ, basis_vector
from .phi2 import Phi2Element, phi2_b_membership
from .rho2 import Rho2Element, act_on_phi2
from .wedge import Wedge2, Wedge3


def compute_E(R: SymplecticMatrix) -> dict:
    """The complete map (i, j, k) -> E_ijk over all triples i < j < k, exact,
    computed afresh on each call."""
    if not isinstance(R, SymplecticMatrix):
        raise TypeError("compute_E needs a SymplecticMatrix")
    g, rows = R.genus, R.rows
    RJ = [_vJ(row) for row in rows]
    # E_ijk = .(si rj - ri sj, rk) + .(ri rj, sk), one dot product of
    # (cross || prod), formed once per pair i < j, with (r_k || s_k)
    ext = [row + s for row, s in zip(rows, RJ)]
    E = {}
    for i, j in itertools.combinations(range(2 * g), 2):
        ri, rj, si, sj = rows[i], rows[j], RJ[i], RJ[j]
        left = [s * b - a * t for a, b, s, t in zip(ri, rj, si, sj)] + list(map(mul, ri, rj))
        for k in range(j + 1, 2 * g):
            E[(i + 1, j + 1, k + 1)] = sum(map(mul, left, ext[k]))
    return E


def _odd_E(R: SymplecticMatrix) -> frozenset:
    """The triples (i, j, k), i < j < k, with E_ijk odd, kept in R's slot _odd_E."""
    if R._odd_E is not None:
        return R._odd_E
    g, n = R.genus, 2 * R.genus
    low = (1 << g) - 1
    # bit c of r_i is R_ic mod 2 (v & 1 holds for negative and unbounded ints);
    # s_i, the bits of row i of RJ = (row_b, -row_a), swaps the two g-bit halves
    r = [sum((v & 1) << c for c, v in enumerate(row)) for row in R.rows]
    s = [(x >> g) | ((x & low) << g) for x in r]
    odd = []
    for i, j in itertools.combinations(range(n), 2):
        ri, rj, si, sj = r[i], r[j], s[i], s[j]
        cross, prod = (si & rj) ^ (ri & sj), ri & rj
        for k in range(j + 1, n):
            if ((cross & r[k]) ^ (prod & s[k])).bit_count() & 1:
                odd.append((i + 1, j + 1, k + 1))
    R._odd_E = frozenset(odd)
    return R._odd_E


def mcg_odd_triples(f: Rho2Element) -> list:
    """Sorted triples i < j < k whose doubled coefficient of r differs from
    E_ijk mod 2; these witness that (r, R) is not a mapping-class value."""
    return sorted(_odd_E(f.R).symmetric_difference(t for t, c in f.r._twice.items() if c & 1))


def mcg_membership(f: Rho2Element) -> bool:
    """True iff (r, R) is the degree-two value of some mapping class."""
    return not mcg_odd_triples(f)


def canonical_lift(R: SymplecticMatrix) -> Rho2Element:
    """The member over R whose doubled coefficients all lie in {0, 1}."""
    r = Wedge3._of(R.genus, dict.fromkeys(_odd_E(R), 1))
    return Rho2Element(r, R)


def handlebody_sp_check(R: SymplecticMatrix) -> bool:
    """True iff the upper-right g x g block of R is zero.

    Equivalently R maps the span of b_1..b_g into itself.  The b_i are
    the classes killed by filling in the handlebody, so every matrix
    induced by a handlebody mapping class has this block shape.
    """
    g = R.genus
    return not any(any(row[g:]) for row in R.rows[:g])


def handlebody_failures(f: Rho2Element) -> tuple:
    """Names of the handlebody membership conditions that fail.

    Condition 1: upper-right block of R is zero.
    Condition 2: the E-congruences of mcg_membership hold.
    Condition 3: r has no a^a^a terms (no triple with k <= g).
    """
    g = f.genus
    failed = []
    if not handlebody_sp_check(f.R):
        failed.append("condition 1")
    if not mcg_membership(f):
        failed.append("condition 2")
    if any(t[2] <= g for t, _ in f.r.terms()):
        failed.append("condition 3")
    return tuple(failed)


def handlebody_membership(f: Rho2Element) -> bool:
    """True iff (r, R) is the degree-two value of a handlebody mapping class."""
    return not handlebody_failures(f)


def torelli_handlebody_basis(genus: int) -> list:
    """Free basis of the image of the handlebody Torelli group.

    Returns the elements (w, I) for w running over the integral basis
    b_i^b_j^b_k, a_i^b_j^b_k, a_i^a_j^b_k with 1 <= i, j, k <= g
    (indices increasing inside each factor type).
    """
    _require_genus(genus)
    g = genus
    ident = SymplecticMatrix.identity(g)
    out = []
    for i, j, k in itertools.combinations(range(1, g + 1), 3):
        out.append(Rho2Element(Wedge3.basis(g, g + i, g + j, g + k), ident))
    for i in range(1, g + 1):
        for j, k in itertools.combinations(range(1, g + 1), 2):
            out.append(Rho2Element(Wedge3.basis(g, i, g + j, g + k), ident))
    for i, j in itertools.combinations(range(1, g + 1), 2):
        for k in range(1, g + 1):
            out.append(Rho2Element(Wedge3.basis(g, i, j, g + k), ident))
    return out


def _b_image_generators(genus: int):
    """The points (0, b_i) of phi_2(b), the only generators whose images need
    a check (see the module docstring)."""
    g = genus
    zero2 = Wedge2._of(g, {})
    return [Phi2Element(zero2, basis_vector(g, g + i)) for i in range(1, g + 1)]


def preserves_phi2_b(f: Rho2Element) -> bool:
    """True iff the action of f maps phi_2(b) onto itself.

    The action of any pair is an automorphism of Phi_2, so it is enough to
    check that f maps each point (0, b_i) into phi_2(b): the central
    generators and the inverse direction follow (see the module docstring).
    """
    return all(phi2_b_membership(act_on_phi2(f, p)) for p in _b_image_generators(f.genus))
