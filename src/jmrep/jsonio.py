"""JSON encoding and decoding for every value the command line moves around.

All documents carry an explicit "genus" field and all indices are 1-based.
Encoders emit canonical form: sorted keys, strictly increasing index tuples,
zero terms dropped.  Decoders check the shape of a document (an object, its
fields, arrays, lengths tied to the genus) and the public constructors check
the entries, and that the genera of the parts agree, once.  Anything off
raises ValueError or a jmrep error (the CLI maps both to exit code 2).
"""

from __future__ import annotations

import json

from .linalg import HVector, IntMatrix, SymplecticMatrix
from .phi2 import Phi2Element
from .rho2 import Rho2Element
from .wedge import Wedge2, Wedge3
from .words import EndomorphismSpec, FreeWord


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


# The largest genus a document may declare.  Work and output grow fast with g
# (the Torelli-handlebody basis alone prints about 8 g^5 bytes: 9.7 MB at
# g = 16, 223 MB at g = 30), so a document past this bound is rejected here,
# the one place every decoder reads its genus, instead of exhausting memory.
MAX_GENUS = 16

# The most digits an integer in a document may have, checked on its text before
# conversion.  The largest output, mul's fiber r_f + R_f r_g, has about four input
# sizes of digits, below Python's 4,300-digit limit on printing an int.
MAX_DIGITS = 1000


def _bounded_int(text: str) -> int:
    _require(len(text.lstrip("-")) <= MAX_DIGITS,
             f"integers must have at most {MAX_DIGITS} digits")
    return int(text)


def _genus_of(doc) -> int:
    _require(isinstance(doc, dict), "expected a JSON object")
    g = doc.get("genus")
    _require(isinstance(g, int) and not isinstance(g, bool) and g >= 1,
             "field 'genus' must be a positive integer")
    _require(g <= MAX_GENUS, f"field 'genus' must be at most {MAX_GENUS}")
    return g


# ---------------------------------------------------------------- vectors

def encode_hvector(v: HVector) -> dict:
    return {"genus": v.genus, "coeffs": list(v.coeffs)}


def decode_hvector(doc) -> HVector:
    g = _genus_of(doc)
    coeffs = doc.get("coeffs")
    _require(isinstance(coeffs, list), "'coeffs' must be an array")
    _require(len(coeffs) == 2 * g, "'coeffs' must have length 2*genus")
    return HVector(coeffs)  # checks each coefficient


# ---------------------------------------------------------------- matrices

def encode_matrix(M: IntMatrix) -> dict:
    return {"genus": M.genus, "rows": [list(r) for r in M.rows]}


def _rows(doc) -> list:
    g = _genus_of(doc)
    rows = doc.get("rows")
    _require(isinstance(rows, list) and len(rows) == 2 * g,
             "'rows' must be an array of 2*genus rows")
    _require(all(isinstance(r, list) for r in rows), "matrix row must be an array")
    return rows  # the constructor checks that each row has length 2*genus


def decode_symplectic(doc) -> SymplecticMatrix:
    return SymplecticMatrix(_rows(doc))  # also raises NotSymplectic unless M J M~ = J


# ---------------------------------------------------------------- wedges

def _encode_wedge(w) -> dict:
    return {"genus": w.genus,
            "terms": [{"idx": list(idx), "twice": t} for idx, t in w.terms()]}


def encode_wedge2(w: Wedge2) -> dict:
    return _encode_wedge(w)


def encode_wedge3(r: Wedge3) -> dict:
    return _encode_wedge(r)


def _decode_terms(doc):
    """The (idx, twice) pairs of a wedge document, each term's shape checked as
    the constructor reaches it (an int 'idx' would fail in tuple())."""
    terms = doc.get("terms")
    _require(isinstance(terms, list), "'terms' must be an array")
    return map(_decode_term, terms)


def _decode_term(item):
    _require(isinstance(item, dict), "each term must be an object")
    idx = item.get("idx")
    _require(isinstance(idx, list), "'idx' must be an array")
    return idx, item.get("twice")


def decode_wedge2(doc) -> Wedge2:
    return Wedge2(_genus_of(doc), _decode_terms(doc))  # checks, sorts and signs each term


def decode_wedge3(doc) -> Wedge3:
    return Wedge3(_genus_of(doc), _decode_terms(doc))


# ---------------------------------------------------------------- words

def encode_word(w: FreeWord) -> dict:
    return {"genus": w.genus, "letters": list(w.letters)}


def decode_word(doc) -> FreeWord:
    g = _genus_of(doc)
    letters = doc.get("letters")
    _require(isinstance(letters, list), "'letters' must be an array")
    return FreeWord(g, letters)  # checks each letter


# ---------------------------------------------------------------- phi2 / rho2

def encode_phi2(p: Phi2Element) -> dict:
    return {"eta": encode_wedge2(p.eta), "y": encode_hvector(p.y)}


def decode_phi2(doc) -> Phi2Element:
    _require(isinstance(doc, dict) and "eta" in doc and "y" in doc,
             "expected an object with 'eta' and 'y'")
    return Phi2Element(decode_wedge2(doc["eta"]), decode_hvector(doc["y"]))  # checks genus


def encode_rho2(f: Rho2Element) -> dict:
    return {"r": encode_wedge3(f.r), "R": encode_matrix(f.R)}


def decode_rho2(doc) -> Rho2Element:
    _require(isinstance(doc, dict) and "r" in doc and "R" in doc,
             "expected an object with 'r' and 'R'")
    return Rho2Element(decode_wedge3(doc["r"]), decode_symplectic(doc["R"]))  # checks genus


# ---------------------------------------------------------------- endomorphisms

def encode_endo(e: EndomorphismSpec) -> dict:
    return {"genus": e.genus, "images": [encode_word(w) for w in e.images]}


def decode_endo(doc) -> EndomorphismSpec:
    """Images may be FreeWord documents or bare letter arrays."""
    g = _genus_of(doc)
    images = doc.get("images")
    _require(isinstance(images, list) and len(images) == 2 * g,
             "'images' must list 2*genus words")
    words = [decode_word(item if isinstance(item, dict) else {"genus": g, "letters": item})
             for item in images]
    return EndomorphismSpec(g, words)  # checks that every word has genus g


# ---------------------------------------------------------------- output

def canonical_dumps(doc) -> str:
    """Deterministic one-line rendering used for all CLI output."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
