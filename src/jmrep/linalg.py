"""Exact integer linear algebra on the symplectic lattice H = Z^(2g).

H is the first homology of a genus-g surface with one boundary circle, with
symplectic basis a_1..a_g, b_1..b_g.  Throughout the package the basis is
also written x_1..x_2g with x_i = a_i and x_(i+g) = b_i, and every index
that appears in a public signature is 1-based to match that notation.

All arithmetic uses plain Python integers, so results are exact at any size.
The intersection pairing is <u, v> = v~ J u (v~ = transpose), which makes
<a_i, b_i> = +1 and gives the contraction identity <R x_n, x_k> = (JR)_kn.

The public constructors check every entry, and SymplecticMatrix also checks
M J M~ = J.  Closed operations (vector arithmetic, products, negation,
symplectic_inverse) build their results through the unchecked _of
and keep the invariant themselves: a vector is a tuple of 2g ints, a matrix
a tuple of 2g such tuples, and a SymplecticMatrix result is symplectic, as
products and inverses of symplectic matrices are by theorem.

No routine here multiplies by J: it only swaps the a- and b-blocks with a sign.  The
symplectic check compares (M J M~)_ab = (row a of M)~J . (row b of M) with J_ab
for a < b.  The inverse of a symplectic M is -J M~ J, so _inverse_cols reads
its columns straight off the rows of M: column j is (row j+g)~J for j < g and
-(row j-g)~J otherwise.  symplectic_inverse and rho2.tau2_from_endo both use it.

Rows are never reassigned after construction, so the set of triples with
E_ijk odd, which depends on a SymplecticMatrix alone, is computed once by
membership._odd_E and kept, as a frozenset, in the matrix's private slot
_odd_E (None until then); the exact map of membership.compute_E is not kept.
The slot takes no part in equality, hashing or repr.

_require_genus, _check_genus, _check_operand, _check_index, _check_images and
_fmt_terms are the package's one genus rule (an int, not a bool, >= 1),
genus-agreement check, operand check, basis-index check, image-list check (2g
images of one genus) and term formatter.
"""

from __future__ import annotations

from operator import mul
from typing import Iterable

from .errors import GenusMismatch, NotSymplectic


def _as_int_tuple(values: Iterable) -> tuple:
    out = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int):
            raise ValueError(f"expected an integer, got {v!r}")
        out.append(v)
    return tuple(out)


def _check_index(i: int, genus: int) -> None:
    """Raise ValueError unless i is an int in 1..2g (0 or -1 would index from the end)."""
    if isinstance(i, bool) or not isinstance(i, int) or not 1 <= i <= 2 * genus:
        raise ValueError(f"basis index {i} out of range for genus {genus}")


def _require_genus(genus) -> None:
    """Raise ValueError unless genus is an int (not a bool) >= 1."""
    if isinstance(genus, bool) or not isinstance(genus, int) or genus <= 0:
        raise ValueError(f"genus must be an integer >= 1, got {genus!r}")


def _check_genus(a, b) -> None:
    """Raise GenusMismatch unless a and b have the same genus."""
    if a.genus != b.genus:
        raise GenusMismatch(f"genus {a.genus} vs {b.genus}")


def _check_images(genus, images: tuple, kind) -> tuple:
    """Return images; raise unless genus obeys the genus rule and images are 2g
    instances of kind, each of that genus."""
    _require_genus(genus)
    if len(images) != 2 * genus:
        raise ValueError(f"need exactly {2 * genus} images, got {len(images)}")
    for w in images:
        if not isinstance(w, kind):
            raise TypeError(f"images must be {kind.__name__} instances")
        if w.genus != genus:
            raise GenusMismatch(f"genus {genus} vs image genus {w.genus}")
    return images


def _check_operand(a, b) -> None:
    """Raise TypeError unless b has a's type, GenusMismatch unless the genera match."""
    if not isinstance(b, type(a)):
        raise TypeError(f"expected {type(a).__name__}, got {type(b).__name__}")
    _check_genus(a, b)


def _fmt_terms(terms) -> str:
    """The (label, coefficient) pairs with nonzero coefficients as '+x', '-x',
    '+c*x' or '-c*x', joined by spaces; '0' when there are none."""
    parts = []
    for label, c in terms:
        if c:
            size = "" if abs(c) == 1 else f"{abs(c)}*"
            parts.append(f"{'+' if c > 0 else '-'}{size}{label}")
    return " ".join(parts) or "0"


def basis_label(i: int, genus: int) -> str:
    """Name of the basis vector x_i: 'a1'..'ag' then 'b1'..'bg'."""
    _check_index(i, genus)
    return f"a{i}" if i <= genus else f"b{i - genus}"


class HVector:
    """An element of H, stored as a tuple of 2g integer coordinates."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        coeffs = _as_int_tuple(coeffs)
        if len(coeffs) == 0 or len(coeffs) % 2:
            raise ValueError("coordinate length must be 2g for some g >= 1")
        self.coeffs = coeffs

    @classmethod
    def _of(cls, coeffs: tuple) -> "HVector":
        """Trusted constructor: `coeffs` must be a tuple of 2g ints."""
        v = object.__new__(cls)
        v.coeffs = coeffs
        return v

    @property
    def genus(self) -> int:
        return len(self.coeffs) // 2

    def __add__(self, other: "HVector") -> "HVector":
        _check_operand(self, other)
        return HVector._of(tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "HVector") -> "HVector":
        _check_operand(self, other)
        return HVector._of(tuple(x - y for x, y in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "HVector":
        return HVector._of(tuple(-x for x in self.coeffs))

    def __rmul__(self, n: int) -> "HVector":
        if isinstance(n, bool) or not isinstance(n, int):
            return NotImplemented
        return HVector._of(tuple(n * x for x in self.coeffs))

    def __eq__(self, other) -> bool:
        return isinstance(other, HVector) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("HVector", self.coeffs))

    def __repr__(self) -> str:
        g = self.genus
        terms = ((basis_label(i, g), c) for i, c in enumerate(self.coeffs, start=1))
        return f"HVector({_fmt_terms(terms)})"


def zero_vector(genus: int) -> HVector:
    _require_genus(genus)
    return HVector((0,) * (2 * genus))


def basis_vector(genus: int, i: int) -> HVector:
    """The basis vector x_i of H (1-based)."""
    _require_genus(genus)
    _check_index(i, genus)
    return HVector._of(tuple(1 if k == i else 0 for k in range(1, 2 * genus + 1)))


class IntMatrix:
    """A square integer matrix of even dimension 2g, acting on column vectors."""

    __slots__ = ("rows", "_odd_E")

    def __init__(self, rows: Iterable[Iterable[int]]):
        rows = tuple(_as_int_tuple(row) for row in rows)
        n = len(rows)
        if n == 0 or n % 2:
            raise ValueError("dimension must be 2g for some g >= 1")
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        self.rows = rows
        self._odd_E = None

    @classmethod
    def _of(cls, rows: tuple):
        """Trusted constructor: `rows` must be a square tuple of 2g int tuples,
        symplectic when cls is SymplecticMatrix."""
        m = object.__new__(cls)
        m.rows = rows
        m._odd_E = None
        return m

    def _cols(self) -> tuple:
        """The columns as a tuple of 2g int tuples."""
        return tuple(zip(*self.rows))

    @property
    def genus(self) -> int:
        return len(self.rows) // 2

    @classmethod
    def identity(cls, genus: int):
        _require_genus(genus)
        n = 2 * genus
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._of(tuple(tuple(-x for x in row) for row in self.rows))

    def __mul__(self, other):
        if not isinstance(other, (IntMatrix, HVector)):
            return NotImplemented
        _check_genus(self, other)
        if isinstance(other, IntMatrix):
            cols = other._cols()
            rows = tuple(
                tuple(sum(map(mul, row, col)) for col in cols)
                for row in self.rows
            )
            if isinstance(self, SymplecticMatrix) and isinstance(other, SymplecticMatrix):
                return SymplecticMatrix._of(rows)
            return IntMatrix._of(rows)
        return HVector._of(
            tuple(sum(map(mul, row, other.coeffs)) for row in self.rows)
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(("IntMatrix", self.rows))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"{type(self).__name__}([{body}])"


def make_J(genus: int) -> IntMatrix:
    """The intersection-form matrix with g x g blocks (0 -I; I 0): row k is x_k~J."""
    return IntMatrix(_vJ(row) for row in IntMatrix.identity(genus).rows)


def _symplectic_defect(M: IntMatrix):
    """The first (a, b, (M J M~)_ab, J_ab) with a < b (1-based) where the two
    differ, or None; M J M~ is antisymmetric like J, so a < b suffices."""
    g = M.genus
    rows = M.rows
    for a, ra in enumerate(rows):
        raJ = _vJ(ra)
        for b in range(a + 1, 2 * g):
            got = sum(map(mul, raJ, rows[b]))
            want = -1 if b == a + g else 0
            if got != want:
                return a + 1, b + 1, got, want
    return None


def symplectic_check(M: IntMatrix) -> bool:
    """True iff M J M~ = J, i.e. M preserves the intersection pairing."""
    return _symplectic_defect(M) is None


def _require_symplectic(M: IntMatrix) -> None:
    """Raise NotSymplectic naming the first pair where M J M~ and J differ."""
    defect = _symplectic_defect(M)
    if defect is not None:
        a, b, got, want = defect
        raise NotSymplectic(
            f"matrix fails M J M~ = J: entry ({a}, {b}) of M J M~ is {got}, "
            f"of J is {want}"
        )


class SymplecticMatrix(IntMatrix):
    """An IntMatrix verified to satisfy M J M~ = J at construction time."""

    __slots__ = ()

    def __init__(self, rows):
        super().__init__(rows)
        _require_symplectic(self)

    def inverse(self) -> "SymplecticMatrix":
        return symplectic_inverse(self)


def symplectic_inverse(M: SymplecticMatrix) -> SymplecticMatrix:
    """Exact inverse -J M~ J, i.e. (S T; P Q)^-1 = (Q~ -T~; -P~ S~) in g x g blocks."""
    if not isinstance(M, SymplecticMatrix):
        raise TypeError("symplectic_inverse needs a SymplecticMatrix")
    return SymplecticMatrix._of(tuple(zip(*_inverse_cols(M.rows))))


def _vJ(v: tuple) -> tuple:
    """The row v~J of a coordinate tuple v = (v_a, v_b): it is (v_b, -v_a)."""
    g = len(v) // 2
    return v[g:] + tuple(-x for x in v[:g])


def _inverse_cols(rows: tuple) -> tuple:
    """The columns of M^-1 = -J M~ J for the rows of a symplectic M: column j is
    (row j+g)~J for j < g and -(row j-g)~J otherwise."""
    g = len(rows) // 2
    return (*map(_vJ, rows[g:]), *(tuple(-x for x in _vJ(row)) for row in rows[:g]))


def pairing(u: HVector, v: HVector) -> int:
    """Intersection pairing <u, v> = v~ J u; <a_i, b_i> = +1."""
    _check_genus(u, v)
    return sum(map(mul, _vJ(v.coeffs), u.coeffs))


def transvection(v: HVector) -> SymplecticMatrix:
    """The symplectic transvection x -> x + <x, v> v along v."""
    n = 2 * v.genus
    vJ = _vJ(v.coeffs)
    rows = tuple(
        tuple((1 if i == j else 0) + v.coeffs[i] * vJ[j] for j in range(n))
        for i in range(n)
    )
    return SymplecticMatrix(rows)
