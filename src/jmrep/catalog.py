"""A curated catalog of boundary-fixing free-group automorphisms.

Each entry packages an automorphism of pi_1(S_{g,1}) together with its
inverse, both as explicit generator images.  An automorphism of the free
group that fixes the boundary word exactly is the action of a unique
mapping class, so validate_entry certifies entries with purely
combinatorial checks:

  (a) the two specs compose to the identity in both orders,
  (b) the abelianization is symplectic,
  (c) the boundary word is fixed exactly (after free reduction),
  (d) for entries claiming to extend over the handlebody, the degree-two
      value passes the handlebody membership conditions.

Entries live as JSON files under catalog_data/; nothing about an entry
is trusted beyond what these checks establish.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import NamedTuple

from .errors import NotInWedge3, NotSymplectic
from .jsonio import _genus_of, _require
from .linalg import SymplecticMatrix, _require_symplectic
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

    if not endo_compose(entry.spec, entry.inverse_spec).is_identity():
        failures.append("spec o inverse_spec is not the identity")
    if not endo_compose(entry.inverse_spec, entry.spec).is_identity():
        failures.append("inverse_spec o spec is not the identity")

    # abelianization() builds a trusted square int matrix: only check M J M~ = J
    R = SymplecticMatrix._of(entry.spec.abelianization().rows)
    try:
        _require_symplectic(R)
    except NotSymplectic:
        R = None
        failures.append("abelianization is not symplectic")

    bd = boundary_word(g)
    if endo_apply(entry.spec, bd) != bd:
        failures.append("boundary word is not fixed")

    if entry.claimed_handlebody and R is not None:
        if not handlebody_sp_check(R):
            failures.append("claimed handlebody but upper-right block is nonzero")
        else:
            try:
                if not handlebody_membership(tau2_from_endo(entry.spec)):
                    failures.append("claimed handlebody but membership fails")
            except (NotSymplectic, NotInWedge3) as exc:
                failures.append(f"claimed handlebody but degree-two value fails: {exc}")

    return ValidationReport(entry.name, tuple(failures))


def entry_from_dict(doc) -> CatalogEntry:
    """Build an entry from its JSON form.

    The schema is {"name", "genus", "images", "inverse_images",
    "claimed_handlebody"} with each image a list of nonzero letters.
    """
    genus = _genus_of(doc)
    name = doc["name"]
    _require(isinstance(name, str) and bool(name), "entry name must be a nonempty string")
    specs = []
    for key in ("images", "inverse_images"):
        images = doc[key]
        _require(isinstance(images, list) and all(isinstance(w, list) for w in images),
                 f"'{key}' must be an array of letter arrays")
        specs.append(EndomorphismSpec.from_letter_lists(genus, images))  # checks each letter
    claimed = doc["claimed_handlebody"]
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


def catalog(genus: int) -> list:
    """All shipped entries of the given genus (empty for unshipped genera)."""
    root = resources.files(__package__) / "catalog_data" / f"genus{genus}"
    if not root.is_dir():
        return []
    entries = []
    for item in sorted(root.iterdir(), key=lambda p: p.name):
        if item.name.endswith(".json"):
            entries.append(entry_from_dict(json.loads(item.read_text())))
    return entries
