"""Words and endomorphisms of the free group pi_1 of a one-boundary surface.

pi_1(S_{g,1}) is free on 2g generators, written xi_1..xi_2g where
xi_i = alpha_i and xi_(i+g) = beta_i.  A word is a sequence of nonzero
letters in {-2g..-1, 1..2g}; a positive letter k is the generator xi_k
and -k its inverse.  Words are stored as given; reduction is explicit.

The public FreeWord constructor checks every letter.  Closed operations
(concatenation, inverse, free reduction, substitution, the boundary word)
build their results through the unchecked FreeWord._of: their letters come
from words already checked, so the letters tuple stays within +-2g.

_substitute, the one loop of endo_apply and endo_compose, pushes each
letter's image as a block onto a freely reduced stack: the freely reduced
image cancels against the stack top only at the junction, so the stack after
each letter is the reduced form of the prefix substituted so far.  Free
reduction is unique, so these partial stacks, and the letter at which a
max_letters budget trips, are those of pushing the raw images letter by
letter.  Images never change, so a spec keeps its reduced signed images in
the private slot _table, like IntMatrix._odd_E, which takes no part in
equality, hashing or repr.  endo_compose builds through EndomorphismSpec._of.

The distinguished boundary word is the product of commutators
[alpha_1, beta_1] ... [alpha_g, beta_g]; an endomorphism spec that fixes
it exactly (up to free reduction) is the action of a mapping class.
"""

from __future__ import annotations

from operator import add, neg
from typing import Iterable

from .errors import WordLengthExceeded
from .linalg import HVector, IntMatrix, _check_genus, _check_images, _check_operand, _require_genus


def _check_letters(genus: int, letters) -> tuple:
    n = 2 * genus
    out = []
    for s in letters:
        if isinstance(s, bool) or not isinstance(s, int) or s == 0 or abs(s) > n:
            raise ValueError(f"letter {s!r} out of range for genus {genus}")
        out.append(s)
    return tuple(out)


class FreeWord:
    """A word in the free group on xi_1..xi_2g, possibly unreduced."""

    __slots__ = ("genus", "letters")

    def __init__(self, genus: int, letters: Iterable[int] = ()):
        _require_genus(genus)
        self.genus = genus
        self.letters = _check_letters(genus, letters)

    @classmethod
    def _of(cls, genus: int, letters: tuple) -> "FreeWord":
        """Trusted constructor: `letters` must be a tuple of nonzero ints within +-2g."""
        w = object.__new__(cls)
        w.genus = genus
        w.letters = letters
        return w

    @classmethod
    def identity(cls, genus: int) -> "FreeWord":
        return cls(genus)

    @classmethod
    def generator(cls, genus: int, k: int) -> "FreeWord":
        return cls(genus, (k,))

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        """Concatenation (no reduction)."""
        _check_operand(self, other)
        return FreeWord._of(self.genus, self.letters + other.letters)

    def inverse(self) -> "FreeWord":
        return FreeWord._of(self.genus, tuple(-s for s in reversed(self.letters)))

    def abelianization(self) -> HVector:
        """Exponent-sum vector in H."""
        counts = [0] * (2 * self.genus)
        for s in self.letters:
            counts[abs(s) - 1] += 1 if s > 0 else -1
        return HVector._of(tuple(counts))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FreeWord)
            and self.genus == other.genus
            and self.letters == other.letters
        )

    def __hash__(self) -> int:
        return hash(("FreeWord", self.genus, self.letters))

    def __repr__(self) -> str:
        if not self.letters:
            return f"FreeWord(g={self.genus}: 1)"
        body = " ".join(
            f"x{s}" if s > 0 else f"x{-s}^-1" for s in self.letters
        )
        return f"FreeWord(g={self.genus}: {body})"


def _reduced(letters) -> tuple:
    """The letters freely reduced: inverse pairs cancel as they meet on a stack."""
    stack = []
    for s in letters:
        if stack and stack[-1] == -s:
            stack.pop()
        else:
            stack.append(s)
    return tuple(stack)


def word_reduce(w: FreeWord) -> FreeWord:
    """Free reduction: cancel adjacent inverse pairs until none remain."""
    return FreeWord._of(w.genus, _reduced(w.letters))


class EndomorphismSpec:
    """An endomorphism of the free group, given by the images of xi_1..xi_2g."""

    __slots__ = ("genus", "images", "_table")

    def __init__(self, genus: int, images: Iterable[FreeWord]):
        self.images = _check_images(genus, tuple(images), FreeWord)
        self.genus = genus
        self._table = None

    @classmethod
    def _of(cls, genus: int, images: tuple) -> "EndomorphismSpec":
        """Trusted constructor: `images` must be a tuple of 2g FreeWords of this genus."""
        e = object.__new__(cls)
        e.genus = genus
        e.images = images
        e._table = None
        return e

    @classmethod
    def identity(cls, genus: int) -> "EndomorphismSpec":
        _require_genus(genus)
        return cls(genus, tuple(FreeWord.generator(genus, k) for k in range(1, 2 * genus + 1)))

    @classmethod
    def from_letter_lists(cls, genus: int, lists) -> "EndomorphismSpec":
        return cls(genus, tuple(FreeWord(genus, ls) for ls in lists))

    def abelianization(self) -> IntMatrix:
        """The induced matrix on H; column n is the exponent sum of images[n]."""
        return IntMatrix._of(tuple(zip(*(w.abelianization().coeffs for w in self.images))))

    def is_identity(self) -> bool:
        return all(
            word_reduce(w).letters == (k,)
            for k, w in enumerate(self.images, start=1)
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EndomorphismSpec)
            and self.genus == other.genus
            and self.images == other.images
        )

    def __hash__(self) -> int:
        return hash(("EndomorphismSpec", self.genus, self.images))

    def __repr__(self) -> str:
        body = ", ".join(
            f"x{k} -> {' '.join(str(s) for s in w.letters) or '1'}"
            for k, w in enumerate(self.images, start=1)
        )
        return f"EndomorphismSpec(g={self.genus}: {body})"


def _substitute(e: EndomorphismSpec, letters, max_letters: int | None) -> tuple:
    """The reduced image of the letters under e, or WordLengthExceeded once the
    stack exceeds max_letters.  e._table[s], None until s first occurs, is the
    reduced image of the signed letter s; a negative s indexes from the end."""
    table = e._table
    if table is None:
        table = e._table = [None] * (4 * e.genus + 1)
    stack = []
    for s in letters:
        img = table[s]
        if img is None:
            img = e.images[abs(s) - 1].letters
            if not all(map(add, img, img[1:])):  # some adjacent pair cancels
                img = _reduced(img)
            if s < 0:
                img = tuple(map(neg, reversed(img)))
            table[s] = img
        if stack and img and stack[-1] == -img[0]:
            c, m = 1, min(len(stack), len(img))
            while c < m and stack[-1 - c] == -img[c]:
                c += 1
            del stack[-c:]
            stack.extend(img[c:])
        else:
            stack.extend(img)
        if max_letters is not None and len(stack) > max_letters:
            raise WordLengthExceeded(f"substitution exceeded {max_letters} letters")
    return tuple(stack)


def endo_apply(e: EndomorphismSpec, w: FreeWord, max_letters: int | None = None) -> FreeWord:
    """Apply the substitution to a word and freely reduce the result; raises
    WordLengthExceeded if the reduced stack ever exceeds max_letters."""
    _check_genus(e, w)
    return FreeWord._of(w.genus, _substitute(e, w.letters, max_letters))


def endo_compose(e1: EndomorphismSpec, e2: EndomorphismSpec,
                 max_letters: int | None = None) -> EndomorphismSpec:
    """The composite 'apply e2 first, then e1'.

    Its images are endo_apply(e1, e2.images[n]), matching the convention
    that matrices act on column vectors on the left; max_letters bounds each
    image as in endo_apply.
    """
    _check_genus(e1, e2)
    g = e1.genus
    return EndomorphismSpec._of(
        g, tuple(FreeWord._of(g, _substitute(e1, w.letters, max_letters)) for w in e2.images))


def boundary_word(genus: int) -> FreeWord:
    """The boundary circle [alpha_1, beta_1] ... [alpha_g, beta_g]."""
    _require_genus(genus)
    letters = []
    for i in range(1, genus + 1):
        letters += [i, i + genus, -i, -(i + genus)]
    return FreeWord._of(genus, tuple(letters))
