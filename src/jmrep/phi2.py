"""The two-step nilpotent quotient Phi_2 of the surface group.

Phi_2 is the set (1/2)W2(H) x H with multiplication

    (eta, y) (nu, z) = (eta + nu + (1/2) y^z, y + z),

a central extension of H by (1/2)W2(H).  The quotient map phi_2 from
pi_1 sends xi_i to (0, x_i); its image is the subgroup of pairs whose
eta-coefficients match the parity of the products of the coordinates of
y, and the image of the handlebody subgroup 'b' (loops that die in the
handlebody) is cut out by the conditions of phi2_b_membership.

Coefficients of eta follow the doubled-integer convention of the wedge
module throughout.

phi2_eval_word does not scan eta's indices per letter: it adds the running
y into one accumulator vector per generator (a C-level map over 2g
coordinates) and reads eta off the accumulators once at the end.  That loop
is _phi2_raw, whose raw (eta dict, y tuple) pairs tau2_from_endo reads too.
Closed operations build their results through the unchecked Phi2Element._of.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, repeat, starmap
from operator import add, mod, mul, sub

from .linalg import HVector, _check_genus, zero_vector
from .wedge import Wedge2, half_wedge2_of
from .words import FreeWord


class Phi2Element:
    """An element (eta, y) of Phi_2."""

    __slots__ = ("eta", "y")

    def __init__(self, eta: Wedge2, y: HVector):
        if not isinstance(eta, Wedge2) or not isinstance(y, HVector):
            raise TypeError("Phi2Element needs (Wedge2, HVector)")
        _check_genus(eta, y)
        self.eta = eta
        self.y = y

    @classmethod
    def _of(cls, eta: Wedge2, y: HVector) -> "Phi2Element":
        """Trusted constructor: eta and y must be a Wedge2 and an HVector of one genus."""
        p = object.__new__(cls)
        p.eta = eta
        p.y = y
        return p

    @property
    def genus(self) -> int:
        return self.y.genus

    @classmethod
    def identity(cls, genus: int) -> "Phi2Element":
        return cls(Wedge2.zero(genus), zero_vector(genus))

    def __mul__(self, other: "Phi2Element") -> "Phi2Element":
        if not isinstance(other, Phi2Element):
            return NotImplemented
        return phi2_mul(self, other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Phi2Element)
            and self.eta == other.eta
            and self.y == other.y
        )

    def __hash__(self) -> int:
        return hash(("Phi2Element", self.eta, self.y))

    def __repr__(self) -> str:
        return f"Phi2Element(eta={self.eta!r}, y={self.y!r})"


def phi2_mul(p: Phi2Element, q: Phi2Element) -> Phi2Element:
    """(eta, y)(nu, z) = (eta + nu + (1/2) y^z, y + z); eta + nu checks genus."""
    if not (isinstance(p, Phi2Element) and isinstance(q, Phi2Element)):
        names = f"{type(p).__name__} * {type(q).__name__}"
        raise TypeError(f"phi2_mul needs two Phi2Elements, got {names}")
    return Phi2Element._of(p.eta + q.eta + half_wedge2_of(p.y, q.y), p.y + q.y)


def phi2_inv(p: Phi2Element) -> Phi2Element:
    """(eta, y)^-1 = (-eta, -y); the (1/2) y^y correction vanishes."""
    if not isinstance(p, Phi2Element):
        raise TypeError(f"phi2_inv needs a Phi2Element, got {type(p).__name__}")
    return Phi2Element._of(-p.eta, -p.y)


def phi2_eval_word(w: FreeWord) -> Phi2Element:
    """phi_2 of a word: the ordered product of (0, x_k)^(+-1) over its letters.

    A letter sign*x_k adds (1/2) y ^ (sign x_k) to eta, with y the sum of the
    letters before it.  In doubled units that is sign*y_p at p^k for p < k
    and -sign*y_q at k^q for q > k, so one accumulator per generator,
    acc[k] = the sum of sign*y over the letters of x_k, holds all of eta:
    the doubled p^q coefficient (p < q) is acc[q][p] - acc[p][q].
    """
    eta, y = _phi2_raw(w.genus, w.letters)
    return Phi2Element._of(Wedge2._of(w.genus, eta), HVector._of(y))


def _phi2_raw(g: int, letters) -> tuple:
    """(eta's doubled coefficients as a canonical dict, y as a tuple) of phi_2
    of the letters, by phi2_eval_word's accumulators."""
    n = 2 * g
    y = [0] * n
    acc = [None] * n
    for s in letters:
        k = abs(s) - 1
        a = acc[k]
        if s > 0:
            acc[k] = list(map(add, a, y)) if a else y[:]
            y[k] += 1
        else:
            acc[k] = list(map(sub, a, y)) if a else [-c for c in y]
            y[k] -= 1
    # acc[k][p] is nonzero only where y_p was, i.e. at generators in the word
    live = [k for k, a in enumerate(acc) if a]
    eta = {}
    for x, p in enumerate(live):
        ap = acc[p]
        for q in live[x + 1:]:
            c = acc[q][p] - ap[q]
            if c:
                eta[(p + 1, q + 1)] = c
    return eta, tuple(y)


_index_pairs = cache(lambda n: list(combinations(range(1, n + 1), 2)))  # i < j, in order


def _residuals(p: Phi2Element):
    """An iterator over the doubled x_i^x_j coefficient of eta minus l_i * l_j,
    where y = sum l_i x_i, for the pairs i < j in the order of _index_pairs."""
    l = p.y.coeffs
    pairs = _index_pairs(len(l))
    return map(sub, map(p.eta._twice.get, pairs, repeat(0)), starmap(mul, combinations(l, 2)))


def phi2_pi_membership(p: Phi2Element) -> bool:
    """True iff (eta, y) is the phi_2-image of some word.

    Writing y = sum l_i x_i, the condition is that every doubled
    coefficient of eta is congruent to l_i * l_j mod 2.
    """
    return not any(map(mod, _residuals(p), repeat(2)))  # stops at the first odd one


def phi2_b_membership(p: Phi2Element) -> bool:
    """True iff (eta, y) is the phi_2-image of a loop bounding in the handlebody.

    Writing y = sum l_i b_i, the conditions are: y has no a-part, eta has no
    a^a terms, the a^b coefficients of eta are integers, and the doubled
    b^b coefficients are congruent to l_i * l_j mod 2.  With no a-part in y
    the last two say exactly that p passes phi2_pi_membership.
    """
    g = p.genus
    return (
        not any(p.y.coeffs[:g])
        and all(j > g for _, j in p.eta._twice)
        and phi2_pi_membership(p)
    )


def phi2_word_synthesis(p: Phi2Element) -> FreeWord:
    """Produce a word whose phi_2-image is exactly p.

    The word is the generator string xi_1^l_1 ... xi_2g^l_2g followed by
    central commutator corrections [xi_i, xi_j]^n_ij.  Raises ValueError
    when p fails phi2_pi_membership.
    """
    # the generator string contributes l_i l_j, so [xi_i, xi_j]^(d/2) makes up a
    # residual d; every residual is read, and checked, before any letter is built
    counts = [(i, j, d) for (i, j), d in zip(_index_pairs(2 * p.genus), _residuals(p)) if d]
    if any(d % 2 for _, _, d in counts):
        raise ValueError("element is not in the image of phi_2")
    l = p.y.coeffs
    letters = []
    for i, li in enumerate(l, start=1):
        letters += [i if li > 0 else -i] * abs(li)
    for i, j, d in counts:
        if d > 0:
            letters += [i, j, -i, -j] * (d // 2)
        else:
            letters += [j, i, -j, -i] * (-d // 2)
    return FreeWord._of(p.genus, tuple(letters))
