"""Exterior algebra over the half-integers for the lattice H = Z^(2g).

Elements of (1/2)W2(H) and (1/2)W3(H) are sparse maps from strictly
increasing index pairs/triples to half-integer coefficients.  Every
coefficient is stored as its DOUBLED integer value (the "twice"
convention), so all arithmetic stays in Z; a stored value t means the
coefficient t/2.  In canonical form the keys are strictly increasing int
tuples within 1..2g and every value is a nonzero int, so equality is plain
structural equality.  The public constructors check and canonicalize their
input, the one place (JSON decoding included) that does: index tuples may come
in any order, x_j^x_i = -x_i^x_j, and a repeated index gives 0.  Closed
operations build their results through the unchecked _Wedge._of and must
themselves drop the zeros that cancellation creates; those on HomHW2 build
theirs through HomHW2._of.

The bridge between W3(H) and Hom(H, (1/2)W2(H)) is

    (x_i ^ x_j ^ x_k)(y) = <y,x_k> x_i^x_j + <y,x_i> x_j^x_k + <y,x_j> x_k^x_i

extended linearly, with <u, v> the intersection pairing from linalg.

wedge3_decode inverts this embedding in closed form.  The symplectic dual
of x_k is y_k = -x_(k+g) for k <= g and y_k = x_(k-g) otherwise, so
<y_k, x_l> = delta_kl and the x_i^x_j coefficient (j < k) of the image of
y_k is exactly r_ijk.  These read-off values are the doubled coefficients
themselves, so the decode is exact with no division, and it shows the
embedding is injective.  Re-embedding the read-off and comparing with the
input is the membership test: a homomorphism that is not induced by any
element of (1/2)W3(H) fails it and raises NotInWedge3.  wedge3_embed
builds all 2g images in one pass over the terms of r: a term touches only
the images at the symplectic partners of its three indices.

R acts on W2(H) by Lambda^2 R in a dense upper-triangular array, which one
loop adds a contraction r(v) into and one helper reads out.  On W3(H) it packs
vectors into big ints of fixed-width fields (Kronecker substitution), so each
Lambda^2 block and each row of the result is a few integer products.

Genera, operands, image lists, basis indices and reprs go through linalg's
_check_genus, _check_operand, _check_images, _check_index and _fmt_terms;
_add_kappa is kappa's rule for rho2 as well.
"""

from __future__ import annotations

from functools import cache
from itertools import chain, combinations, compress, product, repeat
from operator import add, itemgetter, lshift, mul, sub
from sys import byteorder
from typing import Iterable, Mapping

from .errors import NotInWedge3
from .linalg import (
    HVector,
    IntMatrix,
    SymplecticMatrix,
    _check_genus,
    _check_images,
    _check_index,
    _check_operand,
    _fmt_terms,
    _require_genus,
    _vJ,
    basis_label,
    basis_vector,
)

# memoryview.cast reads words in the host's byte order (see wedge3_sp_action);
# the -1 branch cannot run on a little-endian host, and no test reaches it
_STEP = 1 if byteorder == "little" else -1
_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _fmt_twice(twice_map, genus):
    """linalg._fmt_terms of the terms x_i^x_j(^x_k) with coefficients t/2."""
    from fractions import Fraction  # only repr needs it; keeps it out of start-up

    return _fmt_terms(("^".join(basis_label(i, genus) for i in idx), Fraction(t, 2))
                      for idx, t in sorted(twice_map.items()))


def _nonzero(twice: dict) -> dict:
    """twice without the zero values that cancellation left behind."""
    return {k: t for k, t in twice.items() if t}


def _sort_signed(idx: tuple):
    """(sign, sorted idx), with sign that of the permutation sorting idx, or 0
    when an index repeats and the wedge product vanishes."""
    key = tuple(sorted(idx))
    if len(set(key)) < len(key):
        return 0, key
    inversions = sum(a > b for p, a in enumerate(idx) for b in idx[p + 1:])
    return (-1) ** inversions, key


def _build_twice(genus, terms, arity):
    """The canonical form of terms, (index tuple, t) pairs in a mapping or an
    iterable: each tuple is checked, then signed by its sorting permutation."""
    n = 2 * genus
    if isinstance(terms, Mapping):
        items = terms.items()
    else:
        items = terms
    out = {}
    for idx, t in items:
        idx = tuple(idx)
        if len(idx) != arity or any(isinstance(i, bool) or not isinstance(i, int) for i in idx):
            raise ValueError(f"bad index tuple {idx!r}")
        if not all(1 <= i <= n for i in idx):
            raise ValueError(f"index tuple {idx} must lie within 1..{n}")
        if isinstance(t, bool) or not isinstance(t, int):
            raise ValueError(f"doubled coefficient must be an integer, got {t!r}")
        if any(idx[k] >= idx[k + 1] for k in range(arity - 1)):
            sign, idx = _sort_signed(idx)
            t *= sign  # 0 when an index repeats
        if t:
            out[idx] = out.get(idx, 0) + t
    return _nonzero(out)


class _Wedge:
    """Sparse map from strictly increasing index tuples of a fixed arity to
    doubled coefficients; Wedge2 and Wedge3 fix the arity."""

    __slots__ = ("genus", "_twice")

    def __init__(self, genus: int, terms=()):
        _require_genus(genus)
        self.genus = genus
        self._twice = _build_twice(genus, terms, self.ARITY)

    @classmethod
    def _of(cls, genus: int, twice: dict):
        """Trusted constructor: `twice` must already be in canonical form."""
        w = object.__new__(cls)
        w.genus = genus
        w._twice = twice
        return w

    @classmethod
    def zero(cls, genus: int):
        return cls(genus)

    @classmethod
    def basis(cls, genus: int, *idx: int):
        """The integral element x_i ^ x_j (^ x_k) (coefficient 1, so twice = 2)."""
        return cls(genus, {idx: 2})

    def twice(self, *idx: int) -> int:
        """Doubled coefficient of x_i ^ x_j (^ x_k), indices in any order and
        signed as the constructor signs them."""
        for i in idx:
            _check_index(i, self.genus)
        unit = _build_twice(self.genus, ((idx, 1),), self.ARITY)  # {sorted idx: sign}
        return sum(sign * self._twice.get(key, 0) for key, sign in unit.items())

    def terms(self):
        """Sorted tuple of (index tuple, doubled coefficient), zero terms omitted."""
        return tuple(sorted(self._twice.items()))

    def is_zero(self) -> bool:
        return not self._twice

    def is_integral(self) -> bool:
        """True iff every coefficient is an integer (all doubled values even)."""
        return all(t % 2 == 0 for t in self._twice.values())

    def __add__(self, other):
        _check_operand(self, other)
        out = dict(self._twice)
        for k, t in other._twice.items():
            out[k] = out.get(k, 0) + t
        return self._of(self.genus, _nonzero(out))

    def __sub__(self, other):
        _check_operand(self, other)  # before negating, so a foreign operand gets its TypeError
        return self + -other

    def __neg__(self):
        return self._of(self.genus, {k: -t for k, t in self._twice.items()})

    def __rmul__(self, n: int):
        if isinstance(n, bool) or not isinstance(n, int):
            return NotImplemented
        return self._of(self.genus, {k: n * t for k, t in self._twice.items()} if n else {})

    __mul__ = __rmul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, type(self))
            and self.genus == other.genus
            and self._twice == other._twice
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.genus, frozenset(self._twice.items())))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(g={self.genus}: {_fmt_twice(self._twice, self.genus)})"


class Wedge2(_Wedge):
    """Element of (1/2)W2(H): sparse map from pairs (i<j) to doubled coefficients.

    Wedge2(g, terms) takes pairs in any order and stores them sorted and signed."""

    __slots__ = ()
    ARITY = 2


class Wedge3(_Wedge):
    """Element of (1/2)W3(H): sparse map from triples (i<j<k) to doubled coefficients.

    Wedge3(g, terms) takes triples in any order and stores them sorted and signed."""

    __slots__ = ()
    ARITY = 3


def half_wedge2_of(u: HVector, v: HVector) -> Wedge2:
    """(1/2) u ^ v, the correction term of the two-step nilpotent product."""
    _check_genus(u, v)
    return Wedge2._of(u.genus, _pair_minors(u.coeffs, v.coeffs))


def _pair_minors(u, v) -> dict:
    """The nonzero 2x2 minors u_p v_q - u_q v_p (p < q) of two coordinate
    tuples, keyed by 1-based pairs: the doubled coefficients of (1/2) u ^ v."""
    live = [p for p, (up, vp) in enumerate(zip(u, v)) if up or vp]
    out = {}
    for x, p in enumerate(live):
        up, vp = u[p], v[p]
        for q in live[x + 1:]:
            c = up * v[q] - u[q] * vp
            if c:
                out[(p + 1, q + 1)] = c
    return out


def wedge3_of(u: HVector, v: HVector, w: HVector) -> Wedge3:
    """The integral product u ^ v ^ w; coefficients are 3x3 minors."""
    _check_genus(u, v)
    _check_genus(u, w)
    a, b, c = u.coeffs, v.coeffs, w.coeffs
    minors = {(p + 1, q + 1, s + 1): 2 * (a[p] * (b[q] * c[s] - b[s] * c[q])
                                          - a[q] * (b[p] * c[s] - b[s] * c[p])
                                          + a[s] * (b[p] * c[q] - b[q] * c[p]))
              for p, q, s in combinations(range(len(a)), 3)}
    return Wedge3._of(u.genus, _nonzero(minors))


def kappa(y: HVector) -> Wedge2:
    """The half-integral marking homomorphism evaluated at y.

    kappa is linear with kappa(a_i) = (1/2) a_i^b_i and
    kappa(b_i) = -(1/2) a_i^b_i, i.e. kappa(x_i) = (1/2) x_i ^ C x_i.
    """
    return Wedge2._of(y.genus, _add_kappa({}, y.coeffs))


def _add_kappa(acc: dict, y: tuple) -> dict:
    """Add kappa(y) into the doubled coefficients acc and return acc: the
    a_i^b_i coefficient of kappa(y) is y_i - y_(i+g), with y a coordinate tuple."""
    g = len(y) // 2
    for i in range(g):
        t = y[i] - y[i + g]
        if t:
            key = (i + 1, i + 1 + g)
            acc[key] = acc.get(key, 0) + t
    return acc


class HomHW2:
    """Homomorphism H -> (1/2)W2(H), stored by the images of x_1..x_2g."""

    __slots__ = ("genus", "images")

    def __init__(self, images: Iterable[Wedge2]):
        images = tuple(images)
        self.genus = len(images) // 2
        self.images = _check_images(self.genus, images, Wedge2)

    @classmethod
    def _of(cls, genus: int, images: tuple) -> "HomHW2":
        """Trusted constructor: `images` must be a tuple of 2g Wedge2s of this genus."""
        m = object.__new__(cls)
        m.genus = genus
        m.images = images
        return m

    @classmethod
    def zero(cls, genus: int) -> "HomHW2":
        _require_genus(genus)
        return cls(tuple(Wedge2.zero(genus) for _ in range(2 * genus)))

    def precompose(self, M: IntMatrix) -> "HomHW2":
        """The homomorphism m o M, i.e. x_n -> m(M x_n)."""
        _check_genus(self, M)
        images = [w._twice for w in self.images]
        return HomHW2._of(self.genus, _precomposed(self.genus, images, M._cols()))

    def __add__(self, other: "HomHW2") -> "HomHW2":
        _check_operand(self, other)
        return HomHW2._of(self.genus, tuple(a + b for a, b in zip(self.images, other.images)))

    def __sub__(self, other: "HomHW2") -> "HomHW2":
        _check_operand(self, other)
        return HomHW2._of(self.genus, tuple(a - b for a, b in zip(self.images, other.images)))

    def is_zero(self) -> bool:
        return all(w.is_zero() for w in self.images)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HomHW2)
            and self.genus == other.genus
            and self.images == other.images
        )

    def __hash__(self) -> int:
        return hash(("HomHW2", self.images))

    def __repr__(self) -> str:
        g = self.genus
        body = ", ".join(
            f"{basis_label(i + 1, g)} -> {_fmt_twice(w._twice, g)}"
            for i, w in enumerate(self.images)
        )
        return f"HomHW2({body})"


def _precomposed(genus: int, images: list, cols) -> tuple:
    """The images of m o M, given the doubled coefficients images[n] of m(x_(n+1))
    and the columns of M: one Wedge2 m(c) for each column c."""
    out = []
    for col in cols:
        acc = {}
        for c, img in zip(col, images):
            if c:
                for key, t in img.items():
                    acc[key] = acc.get(key, 0) + c * t
        out.append(Wedge2._of(genus, _nonzero(acc)))
    return tuple(out)


def kappa_hom(genus: int) -> HomHW2:
    """kappa as a HomHW2: x_i -> (1/2) x_i ^ C x_i extended linearly."""
    _require_genus(genus)
    return HomHW2(tuple(kappa(basis_vector(genus, i)) for i in range(1, 2 * genus + 1)))


def _contract(twice: dict, v: tuple, A: list) -> list:
    """Add the value at v of the homomorphism induced by a Wedge3's terms into
    the dense upper-triangular A, A[i - 1][j - 1] the x_i^x_j coefficient."""
    vJ = _vJ(v)  # <v, x_k> = -(v~J)_k
    for (i, j, k), t in twice.items():
        ck = vJ[k - 1]
        if ck:
            A[i - 1][j - 1] -= t * ck
        ci = vJ[i - 1]
        if ci:
            A[j - 1][k - 1] -= t * ci
        cj = vJ[j - 1]
        if cj:  # x_k ^ x_i = -(x_i ^ x_k)
            A[i - 1][k - 1] += t * cj
    return A


def _upper(A: list) -> dict:
    """The nonzero entries of a dense upper-triangular A, keyed by 1-based pairs."""
    flat = list(chain.from_iterable(A))
    return dict(compress(zip(_pairs(len(A)), flat), flat))


_pairs = cache(lambda n: list(product(range(1, n + 1), repeat=2)))  # of n x n, by rows


def wedge3_apply(r: Wedge3, v: HVector) -> Wedge2:
    """Evaluate the homomorphism induced by r in W3(H) at the vector v."""
    _check_genus(r, v)
    A = [[0] * len(v.coeffs) for _ in v.coeffs]
    return Wedge2._of(r.genus, _upper(_contract(r._twice, v.coeffs, A)))


def wedge3_embed(r: Wedge3) -> HomHW2:
    """The embedding of (1/2)W3(H) into Hom(H, (1/2)W2(H)), in one pass over r.

    <x_n, x_m> is nonzero only at the symplectic partner n = m* of m
    (m* = m + g with value -1 for m <= g, m* = m - g with value +1 otherwise),
    so a term t x_i^x_j^x_k adds <k*, k> t x_i^x_j to the image of x_k*,
    <i*, i> t x_j^x_k to that of x_i* and -<j*, j> t x_i^x_k to that of x_j*.
    Within one image these keys come from distinct terms (the partner index
    lies after, before or between the pair), so every key is set once and
    every value is nonzero.
    """
    g = r.genus
    images = [{} for _ in range(2 * g)]
    for (i, j, k), t in r._twice.items():
        # 0-based partner index of each of i, j, k, and its sign
        if k > g:
            images[k - g - 1][(i, j)] = t
        else:
            images[k + g - 1][(i, j)] = -t
        if i > g:
            images[i - g - 1][(j, k)] = t
        else:
            images[i + g - 1][(j, k)] = -t
        if j > g:
            images[j - g - 1][(i, k)] = -t
        else:
            images[j + g - 1][(i, k)] = t
    return HomHW2._of(g, tuple(Wedge2._of(g, d) for d in images))


def _lambda2(cols, terms):
    """Dense upper-triangular A with A[p][q] the x_(p+1)^x_(q+1) coefficient of
    sum t R x_j ^ R x_k over terms ((j, k), t); cols[j - 1] is R x_j."""
    n = len(cols)
    images = {}  # j -> R(sum_k t x_k)
    for (j, k), t in terms:
        images[j] = [a + t * b for a, b in zip(images.get(j, [0] * n), cols[k - 1])]
    A = [[0] * n for _ in range(n)]
    for j, u in images.items():
        live_u = [(q, uq) for q, uq in enumerate(u) if uq]
        for p, cp in enumerate(cols[j - 1]):
            if cp:
                Ap = A[p]
                for q, uq in live_u:
                    if q > p:
                        Ap[q] += cp * uq
                    elif q < p:
                        A[q][p] -= cp * uq
    return A


def wedge2_sp_action(R: IntMatrix, w: Wedge2) -> Wedge2:
    """R acting on W2(H): x_i ^ x_j -> (R x_i) ^ (R x_j), extended linearly."""
    _check_genus(R, w)
    return Wedge2._of(w.genus, _upper(_lambda2(R._cols(), w._twice.items())))


def wedge3_sp_action(R: IntMatrix, r: Wedge3) -> Wedge3:
    """R acting on W3(H) by R(x_i^x_j^x_k) = Rx_i ^ Rx_j ^ Rx_k.

    This is the unique action making wedge3_embed equivariant with the
    conjugation action on Hom(H, (1/2)W2(H)).

    With c_m = R x_m, R r = sum_i c_i ^ A_i for the antisymmetric matrices
    A_i = sum_(j<k) t_ijk (c_j (x) c_k - c_k (x) c_j) = sum_m c_m (x) w_im, where
    w_ij += t_ijk c_k and w_ik -= t_ijk c_j.  Vectors are cut to the L rows
    where a reached column is nonzero and packed into ints of W-bit fields
    (Kronecker substitution), c -> sum_s c_s 2^(W s), and a matrix puts its row
    q at field L q.  So row q of A_i is sum_m R_qm w_im, Y_p = sum_i R_pi A_i is
    one sum of int products, and (R r)_pqs = Y_p[q,s] - Y_q[p,s] + Y_s[p,q].

    Field (q, s) of Y_p sums t R_pi (R_qj R_sk - R_qk R_sj) over the terms, so
    it is at most F = 2 M^3 sum|t| in size, M the largest entry of a reached
    column.  W = 8 B, B the least byte count with F < 2^(W-1) rounded up to
    1, 2, 4 or a multiple of 8: with 2^(W-1) added, every field lies in
    [0, 2^W) and none carries into the next.  One memoryview cast of the joined
    rows reads every word, and each triple's three fields are summed word by
    word (word j shifted by 64 j, k = B / 8 words when B > 8, else k = 1).  Rows
    are written in the host's byte order, which the cast reads; a big-endian
    host joins them last first and reads the words in reverse, so on either
    host the words run up from the lowest word of the first row.
    """
    _check_genus(R, r)
    twice = r._twice
    if not twice:
        return Wedge3._of(r.genus, {})
    n = len(R.rows)
    reached = [m - 1 for m in set(chain.from_iterable(twice))]
    at = itemgetter(*reached)  # three or more columns, so it returns tuples
    rows = [p for p, row in enumerate(R.rows) if any(at(row))]
    if not rows:  # R kills every column that r reaches
        return Wedge3._of(r.genus, {})
    live = [R.rows[p] for p in rows]
    L = len(live)
    cols = list(zip(*live))
    M = max(map(abs, chain.from_iterable(map(cols.__getitem__, reached))))
    B = (2 * M ** 3 * sum(map(abs, twice.values()))).bit_length() // 8 + 1
    B = 1 << (B - 1).bit_length() if B <= 4 else -(-B // 8) * 8
    W = 8 * B
    packed = [0] * n
    for m in reached:
        packed[m] = sum(map(lshift, cols[m], range(0, W * L, W)))
    w = {}  # i -> [packed w_im for every m]
    for (i, j, k), t in twice.items():
        wi = w.get(i - 1) or w.setdefault(i - 1, [0] * n)
        wi[j - 1] += t * packed[k - 1]
        wi[k - 1] -= t * packed[j - 1]
    A, row_at = [0] * n, range(0, W * L * L, W * L)
    for i, wi in w.items():
        A[i] = sum(map(lshift, [sum(map(mul, row, wi)) for row in live], row_at))
    bias = int.from_bytes((bytes(B - 1) + b"\x80") * (L * L), "little")
    ys = [sum(map(mul, row, A), bias).to_bytes(L * L * B, byteorder) for row in live]
    size, k = min(B, 8), max(B // 8, 1)
    words = memoryview(b"".join(ys[::_STEP])).cast(_FORMATS[size])[::_STEP]
    a, b, c = _triple_fields(L)
    v = repeat(-(1 << W - 1))
    for j in range(k):  # word j of every field, shifted by 64 j
        at = words[j::k].tolist().__getitem__
        v = list(map(add, v, map(lshift, map(sub, map(add, map(at, a), map(at, c)), map(at, b)),
                                 repeat(64 * j))))
    return Wedge3._of(r.genus, dict(compress(zip(combinations([p + 1 for p in rows], 3), v), v)))


@cache
def _triple_fields(L: int) -> tuple:
    """Field numbers L^2 p + L q + s of Y_x[y,z], Y_y[x,z], Y_z[x,y], x < y < z < L."""
    triples = list(combinations(range(L), 3))
    return ([(x * L + y) * L + z for x, y, z in triples],
            [(y * L + x) * L + z for x, y, z in triples],
            [(z * L + x) * L + y for x, y, z in triples])


def sp_action_on_hom(R: SymplecticMatrix, m: HomHW2) -> HomHW2:
    """The change-of-basis action (R m)(y) = R(m(R^-1 y)) on HomHW2; wedge2_sp_action
    checks genus."""
    if not isinstance(R, SymplecticMatrix):
        raise TypeError("sp_action_on_hom needs a SymplecticMatrix")
    pushed = HomHW2._of(m.genus, tuple(wedge2_sp_action(R, w) for w in m.images))
    return pushed.precompose(R.inverse())


def wedge3_decode(m: HomHW2) -> Wedge3:
    """Exact left inverse of wedge3_embed, by reading off the dual basis.

    With y_k = -x_(k+g) for k <= g and y_k = x_(k-g) otherwise, the vector
    y_k is the symplectic dual of x_k: <y_k, x_l> = delta_kl.  So the
    x_i^x_j coefficient (j < k) of the embedding of r at y_k is exactly
    r_ijk.  The read-off values are the doubled coefficients themselves, so
    no division occurs, and because this read-off is a left inverse the
    embedding is injective.  The read-off r is then re-embedded: m lies in
    the image of (1/2)W3(H) iff that gives back m, and otherwise
    NotInWedge3 names the first basis vector whose image differs.
    """
    g = m.genus
    out = {}
    for k in range(1, 2 * g + 1):
        n, sign = (k + g, -1) if k <= g else (k - g, 1)
        for (i, j), t in m.images[n - 1]._twice.items():
            if j < k:
                out[(i, j, k)] = sign * t
    r = Wedge3._of(g, out)
    for n, (got, want) in enumerate(zip(m.images, wedge3_embed(r).images), start=1):
        if got != want:
            pair = (got - want).terms()[0][0]
            raise NotInWedge3(
                f"the value at {basis_label(n, g)} is not that of any element of "
                f"(1/2)W3(H) (first difference at "
                f"{'^'.join(basis_label(i, g) for i in pair)})"
            )
    return r
