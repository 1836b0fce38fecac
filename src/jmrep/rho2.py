"""The degree-two Johnson-Morita representation as a semidirect product.

An element is a pair (r, R) with r in (1/2)W3(H) and R symplectic; the
group law is

    (r_f, R_f) (r_g, R_g) = (r_f + R_f r_g, R_f R_g),

where R acts on W3(H) columnwise, and (r, R) acts on Phi_2 by

    (r, R) * (eta, y) = (R eta - kappa(R y) + R kappa(y) + r(R y), R y)

with r(.) the homomorphism induced by the wedge embedding.  Note that the
r-term is evaluated at R y; this is the expansion that makes * a left
action compatible with the group law above.  act_on_phi2 sums the eta
part as R(eta + kappa(y)) - kappa(R y) + r(R y) in one dense array.

tau2_from_endo sends a free-group endomorphism f to the pair (r, R)
whose action realizes f on the image of phi_2.  Writing
f(0, x_i) = (w_i, h_i), the matrix R has columns h_i, and r is the
decode of

    tau2~(f) + kappa - R kappa,   where  tau2~(f)(y) = W(R^-1 y)

and W is the linear extension of x_i -> w_i.  The precomposition with
R^-1 is what makes tau2~ satisfy the crossed-homomorphism law
tau2~(fg) = tau2~(f) + R_f tau2~(g); the raw generator images W alone do
not.  The correction by kappa - R kappa is a principal crossed
homomorphism, and the corrected value lands in (1/2)W3(H) exactly when
the endomorphism acts like a mapping class at this level (otherwise
wedge3_decode raises NotInWedge3).

Precomposition is linear, (R kappa)(y) = (Lambda^2 R o kappa)(R^-1 y) and
kappa = kappa o R o R^-1, so the decoded homomorphism is computed as

    m = (W - Lambda^2 R o kappa + kappa o R) o R^-1,

one precomposition with one inverse.  kappa(a_i) = -kappa(b_i) =
(1/2) a_i^b_i, so Lambda^2 R o kappa takes a_i to (1/2) R a_i ^ R b_i, the
2x2 minors of columns i and i+g of R, and b_i to its negative; kappa o R
takes x_n to kappa of column n of R.  tau2_from_endo reads the raw pairs
(w_i, h_i) of phi2._phi2_raw and keeps the shifted images as plain dicts until
their precomposition with the columns of R^-1, which linalg._inverse_cols reads
off R's rows.  Closed operations build their results through the unchecked _of.
"""

from __future__ import annotations

from .errors import NotSymplectic
from .linalg import (SymplecticMatrix, _check_genus, _inverse_cols, _require_genus,
                     _require_symplectic)
from .phi2 import Phi2Element, _phi2_raw
from .wedge import (
    HomHW2,
    Wedge2,
    Wedge3,
    _add_kappa,
    _contract,
    _lambda2,
    _nonzero,
    _pair_minors,
    _precomposed,
    _upper,
    kappa,
    sp_action_on_hom,
    wedge3_decode,
    wedge3_embed,
    wedge3_sp_action,
)
from .words import EndomorphismSpec


class Rho2Element:
    """A pair (r, R) in the semidirect product (1/2)W3(H) x| Sp(2g, Z)."""

    __slots__ = ("r", "R")

    def __init__(self, r: Wedge3, R: SymplecticMatrix):
        if not isinstance(r, Wedge3):
            raise TypeError("r must be a Wedge3")
        if not isinstance(R, SymplecticMatrix):
            raise TypeError("R must be a SymplecticMatrix")
        _check_genus(r, R)
        self.r = r
        self.R = R

    @classmethod
    def _of(cls, r: Wedge3, R: SymplecticMatrix) -> "Rho2Element":
        """Trusted constructor: r and R must be a Wedge3 and a SymplecticMatrix of one genus."""
        f = object.__new__(cls)
        f.r = r
        f.R = R
        return f

    @property
    def genus(self) -> int:
        return self.R.genus

    @classmethod
    def identity(cls, genus: int) -> "Rho2Element":
        return cls(Wedge3.zero(genus), SymplecticMatrix.identity(genus))

    def __mul__(self, other: "Rho2Element") -> "Rho2Element":
        if not isinstance(other, Rho2Element):
            return NotImplemented
        return rho2_mul(self, other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Rho2Element)
            and self.r == other.r
            and self.R == other.R
        )

    def __hash__(self) -> int:
        return hash(("Rho2Element", self.r, self.R))

    def __repr__(self) -> str:
        return f"Rho2Element(r={self.r!r}, R={self.R!r})"


def rho2_mul(f: Rho2Element, g: Rho2Element) -> Rho2Element:
    """(r_f, R_f)(r_g, R_g) = (r_f + R_f r_g, R_f R_g); wedge3_sp_action checks genus."""
    if not (isinstance(f, Rho2Element) and isinstance(g, Rho2Element)):
        names = f"{type(f).__name__} * {type(g).__name__}"
        raise TypeError(f"rho2_mul needs two Rho2Elements, got {names}")
    return Rho2Element._of(f.r + wedge3_sp_action(f.R, g.r), f.R * g.R)


def rho2_inv(f: Rho2Element) -> Rho2Element:
    """(r, R)^-1 = (-(R^-1 r), R^-1)."""
    if not isinstance(f, Rho2Element):
        raise TypeError(f"rho2_inv needs a Rho2Element, got {type(f).__name__}")
    Rinv = f.R.inverse()
    return Rho2Element._of(-wedge3_sp_action(Rinv, f.r), Rinv)


def act_on_phi2(f: Rho2Element, p: Phi2Element) -> Phi2Element:
    """The left action of (r, R) on Phi_2.

    (r, R) * (eta, y) = (R eta - kappa(Ry) + R kappa(y) + r(Ry), Ry),

    computed as (R(eta + kappa(y)) - kappa(Ry) + r(Ry), Ry) in one dense
    array: R acts linearly on W2(H), so one Lambda^2 action of eta + kappa(y)
    fills it, kappa(Ry) comes off its a_i^b_i entries, r(Ry) is added term by
    term, and the array is read out once.  Other operand types: TypeError.
    """
    if not (isinstance(f, Rho2Element) and isinstance(p, Phi2Element)):
        names = f"{type(f).__name__}, {type(p).__name__}"
        raise TypeError(f"act_on_phi2 needs a Rho2Element and a Phi2Element, got {names}")
    Ry = f.R * p.y  # checks genus
    A = _lambda2(f.R._cols(), [*p.eta._twice.items(), *kappa(p.y)._twice.items()])
    for (i, j), t in kappa(Ry)._twice.items():
        A[i - 1][j - 1] -= t
    return Phi2Element._of(Wedge2._of(p.genus, _upper(_contract(f.r._twice, Ry.coeffs, A))), Ry)


def _raw_pairs(endo: EndomorphismSpec):
    """The raw phi_2 pairs (eta dict, y tuple) of the generator images, and the
    matrix R with columns y: only M J M~ = J is left to check."""
    pairs = [_phi2_raw(endo.genus, w.letters) for w in endo.images]
    R = SymplecticMatrix._of(tuple(zip(*(y for _, y in pairs))))
    try:
        _require_symplectic(R)
    except NotSymplectic as exc:
        raise NotSymplectic(f"endomorphism abelianization is not symplectic: {exc}") from exc
    return pairs, R


def tau2_tilde_from_endo(endo: EndomorphismSpec):
    """Raw degree-two data of an endomorphism: (W, R), where (w_i, h_i) is phi_2
    of generator image i, W: x_i -> w_i is a HomHW2 and R is the matrix with
    columns h_i.  Raises NotSymplectic if R fails the symplectic identity."""
    pairs, R = _raw_pairs(endo)
    return HomHW2._of(R.genus, tuple(Wedge2._of(R.genus, eta) for eta, _ in pairs)), R


def tau2_from_endo(endo: EndomorphismSpec) -> Rho2Element:
    """The pair (r, R) realizing the endomorphism's action on phi_2(pi).

    Decodes m = (W - Lambda^2 R o kappa + kappa o R) o R^-1 (see the module
    docstring) into (1/2)W3(H).  Raises NotSymplectic or NotInWedge3 when
    the input does not act like a mapping class at this level.
    """
    pairs, R = _raw_pairs(endo)
    g = R.genus
    # (Lambda^2 R o kappa)(a_i) = (1/2) R a_i ^ R b_i = -(Lambda^2 R o kappa)(b_i)
    halves = [_pair_minors(pairs[i][1], pairs[i + g][1]) for i in range(g)]
    shifted = []
    for n, (acc, col) in enumerate(pairs):  # each eta dict is this call's own
        sign = -1 if n < g else 1
        for key, t in halves[n % g].items():
            acc[key] = acc.get(key, 0) + sign * t
        shifted.append(_nonzero(_add_kappa(acc, col)))  # + kappa(R x_n)
    m = HomHW2._of(g, _precomposed(g, shifted, _inverse_cols(R.rows)))
    return Rho2Element._of(wedge3_decode(m), R)


def principal_crossed_hom(m: HomHW2, R: SymplecticMatrix) -> HomHW2:
    """The principal crossed homomorphism m - R m at R."""
    return m - sp_action_on_hom(R, m)


def morita_shift(genus: int) -> Wedge3:
    """The comparison element -(1/2) (sum_k x_k) ^ (sum_i a_i ^ b_i), term by term:
    Wedge3 sorts and signs each x_k^a_i^b_i and drops those with k = i or i + g."""
    _require_genus(genus)
    return Wedge3(genus, [((k, i, i + genus), -1) for i in range(1, genus + 1)
                          for k in range(1, 2 * genus + 1)])


def morita_tau2_prime(f: Rho2Element) -> HomHW2:
    """The variant crossed homomorphism embed(r) + (m - R m) with m = embed(s), s the shift.

    It differs from embed(r) by a principal crossed homomorphism, so both
    represent the same first-cohomology class.  The embedding is Sp-equivariant,
    R m = embed(R s), so this is embed(r + s - R s): one Lambda^3 action.
    """
    s = morita_shift(f.genus)
    return wedge3_embed(f.r + s - wedge3_sp_action(f.R, s))
