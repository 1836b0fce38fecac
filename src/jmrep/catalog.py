"""A curated catalog of boundary-fixing free-group automorphisms.

Each entry packages an automorphism of pi_1(S_{g,1}) together with its
inverse, both as explicit generator images.  An automorphism of the free
group that fixes the boundary word exactly is the action of a unique
mapping class, so validate_entry certifies entries with purely
combinatorial checks:

  (a) spec o inverse_spec is the identity, which decides both orders, since
      free groups of finite rank are Hopfian (Nielsen),
  (b) the abelianization is symplectic,
  (c) the boundary word is fixed exactly (after free reduction),
  (d) for entries claiming to extend over the handlebody, the degree-two
      value passes the handlebody membership conditions.

Entries are generated from closed forms in the genus (see _entries);
nothing about an entry is trusted beyond what these checks establish.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import NotInWedge3
from .jsonio import _genus_of, _require
from .linalg import _require_genus, symplectic_check
from .membership import handlebody_membership, handlebody_sp_check
from .rho2 import tau2_from_endo
from .words import EndomorphismSpec, boundary_word, endo_apply, endo_compose


class CatalogEntry(NamedTuple):
    """A named automorphism with an explicit inverse and a handlebody claim."""

    name: str
    spec: EndomorphismSpec
    inverse_spec: EndomorphismSpec
    claimed_handlebody: bool

    @property
    def genus(self) -> int:
        return self.spec.genus


class ValidationReport(NamedTuple):
    name: str
    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures


def validate_entry(entry: CatalogEntry) -> ValidationReport:
    """Run the certification checks; the report lists every failure."""
    failures = []
    g = entry.genus
    if entry.inverse_spec.genus != g:
        return ValidationReport(entry.name, ("inverse genus differs",))

    # f o h = id iff h o f = id: free groups of finite rank are Hopfian (Lyndon-Schupp I)
    if not endo_compose(entry.spec, entry.inverse_spec).is_identity():
        failures += ["spec o inverse_spec is not the identity",
                     "inverse_spec o spec is not the identity"]

    R = entry.spec.abelianization()
    symplectic = symplectic_check(R)
    if not symplectic:
        failures.append("abelianization is not symplectic")

    bd = boundary_word(g)
    if endo_apply(entry.spec, bd) != bd:
        failures.append("boundary word is not fixed")

    if entry.claimed_handlebody and symplectic:
        if not handlebody_sp_check(R):
            failures.append("claimed handlebody but upper-right block is nonzero")
        else:
            try:
                if not handlebody_membership(tau2_from_endo(entry.spec)):
                    failures.append("claimed handlebody but membership fails")
            except NotInWedge3 as exc:
                failures.append(f"claimed handlebody but degree-two value fails: {exc}")

    return ValidationReport(entry.name, tuple(failures))


def entry_from_dict(doc) -> CatalogEntry:
    """Build an entry from its JSON form.

    The schema is {"name", "genus", "images", "inverse_images",
    "claimed_handlebody"} with each image a list of nonzero letters.
    """
    genus = _genus_of(doc)
    name = doc.get("name")
    _require(isinstance(name, str) and bool(name), "entry name must be a nonempty string")
    specs = []
    for key in ("images", "inverse_images"):
        images = doc.get(key)
        _require(isinstance(images, list) and all(isinstance(w, list) for w in images),
                 f"'{key}' must be an array of letter arrays")
        specs.append(EndomorphismSpec.from_letter_lists(genus, images))  # checks each letter
    claimed = doc.get("claimed_handlebody")
    _require(isinstance(claimed, bool), "claimed_handlebody must be a boolean")
    return CatalogEntry(name, specs[0], specs[1], claimed)


def entry_to_dict(entry: CatalogEntry) -> dict:
    return {
        "name": entry.name,
        "genus": entry.genus,
        "images": [list(w.letters) for w in entry.spec.images],
        "inverse_images": [list(w.letters) for w in entry.inverse_spec.images],
        "claimed_handlebody": entry.claimed_handlebody,
    }


def _entries(g: int) -> list:
    """Every catalog family at genus g, sorted by name.

    Letters are 1-based, a_i = i and b_i = g + i; D_S is the product of the
    commutators [a_i, b_i] = a_i b_i a_i^-1 b_i^-1 over i in S.  The boundary
    twist conjugates every generator by D_{1..g}, the separating twist those of
    handles 1 and 2 by D_{1,2}.  The handle rotation moves handle i to i + 1,
    and handle g to handle 1 conjugated by D_{2..g}^-1.  The cross-handle twists
    are fixed words in a_1, a_2, b_1, b_2.  Other generators are fixed.
    """
    def inv(w):
        return [-s for s in reversed(w)]

    def conj(w, x):
        return w + [x] + inv(w)

    def boundary(handles):
        return [s for i in handles for s in (i, g + i, -i, -g - i)]

    def conjugation(w, moved):  # the images and inverse images of conjugation by w
        return {x: conj(w, x) for x in moved}, {x: conj(inv(w), x) for x in moved}

    gens = range(1, 2 * g + 1)
    a1, a2, b1, b2 = 1, 2, g + 1, g + 2
    rows = [("boundary_twist", *conjugation(boundary(range(1, g + 1)), gens), True)]
    for i in range(1, g + 1):  # rows: (name, moved images, their inverse images, handlebody)
        rows.append((f"twist_a_{i}", {g + i: [g + i, i]}, {g + i: [g + i, -i]}, False))
        rows.append((f"twist_b_{i}", {i: [i, g + i]}, {i: [i, -g - i]}, True))
    if g >= 2:
        rows.append(("cross_twist_a12",
                     {a1: [a1, a2, a1, -a2, -a1], a2: [a1, a2, -a1],
                      b1: [a1, a2, -a1, -a2, b1, -a2, -a1], b2: [b2, -a2, -a1]},
                     {a1: [-a2, a1, a2], a2: [-a2, -a1, a2, a1, a2],
                      b1: [-a2, -a1, a2, a1, b1, a1, a2], b2: [b2, a1, a2]}, False))
        rows.append(("cross_twist_b12",
                     {a1: [a1, b2, b1], a2: [-b1, -b2, b1, b2, a2, b2, b1],
                      b1: [-b1, -b2, b1, b2, b1], b2: [-b1, b2, b1]},
                     {a1: [a1, -b1, -b2], a2: [b2, b1, -b2, -b1, a2, -b1, -b2],
                      b1: [b2, b1, -b2], b2: [b2, b1, b2, -b1, -b2]}, True))
        X, Y = inv(boundary(range(2, g + 1))), boundary(range(1, g))
        shift = {x: [x + 1] for x in gens if x % g}  # a_i -> a_i+1, b_i -> b_i+1 for i < g
        rows.append(("handle_rotation", {**shift, g: conj(X, a1), 2 * g: conj(X, b1)},
                     {**{x + 1: [x] for x in shift}, a1: conj(Y, g), b1: conj(Y, 2 * g)}, True))
    if g >= 3:
        rows.append(("separating_twist_12", *conjugation(boundary((1, 2)), (a1, a2, b1, b2)),
                     True))

    def spec(moved):
        return EndomorphismSpec.from_letter_lists(g, [moved.get(x, [x]) for x in gens])

    return [CatalogEntry(name, spec(fwd), spec(back), claimed)
            for name, fwd, back, claimed in sorted(rows, key=lambda row: row[0])]


def catalog(genus: int) -> list:
    """All catalog entries of the given genus (empty outside genus 2 and 3)."""
    _require_genus(genus)
    # catalog(4) stays empty: the benchmark's represent pool at g = 3, 4 draws on it
    return _entries(genus) if genus in (2, 3) else []
