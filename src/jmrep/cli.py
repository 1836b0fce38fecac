"""Command-line front end.

Every verb reads JSON documents (file paths, or "-" for stdin), writes one
canonical JSON line to stdout, and exits with:

    0   true / member / success
    1   false / non-member / failed validation
    2   malformed input or internal error (diagnostic on stderr)

Genus is always inferred from the input documents, never from a flag.

The verbs are the rows of one table, VERBS: verb -> (help text, input
fields, handler).  build_parser makes each subparser from its row, with one
positional argument per field, and main loads those fields' documents in
order, passes them to the handler, and writes the output document it returns
with its exit code.  main is the only place that reads input, writes output
or maps an error to exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import catalog, entry_from_dict, validate_entry
from .errors import JmrepError
from .jsonio import (
    _bounded_int,
    _genus_of,
    canonical_dumps,
    decode_endo,
    decode_phi2,
    decode_rho2,
    decode_symplectic,
    decode_word,
    encode_phi2,
    encode_rho2,
)
from .membership import (
    canonical_lift,
    compute_E,
    handlebody_failures,
    mcg_odd_triples,
    torelli_handlebody_basis,
)
from .phi2 import phi2_b_membership, phi2_eval_word, phi2_inv, phi2_pi_membership
from .rho2 import Rho2Element, act_on_phi2, rho2_inv, tau2_from_endo


def _load(paths) -> list:
    docs = []
    used_stdin = False
    for path in paths:
        if path == "-":
            if used_stdin:
                raise ValueError("stdin may be used for at most one input")
            used_stdin = True
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        try:
            docs.append(json.loads(text, parse_int=_bounded_int))
        except RecursionError:
            raise ValueError("input is nested too deeply") from None
    return docs


def _group_element(doc):
    if isinstance(doc, dict) and "r" in doc and "R" in doc:
        return decode_rho2(doc)
    if isinstance(doc, dict) and "eta" in doc and "y" in doc:
        return decode_phi2(doc)
    raise ValueError("expected {'r','R'} or {'eta','y'}")


def _encode(x) -> dict:
    return encode_rho2(x) if isinstance(x, Rho2Element) else encode_phi2(x)


# ---------------------------------------------------------------- verbs
# Each handler takes its verb's documents and returns (output document, exit code).

def _verdict(doc: dict, ok: bool):
    return doc, 0 if ok else 1


def _member(ok: bool):
    return _verdict({"member": ok}, ok)


def _check_mcg(f):
    odd = mcg_odd_triples(decode_rho2(f))
    return _verdict({"member": not odd, "E_odd_triples": [list(t) for t in odd]}, not odd)


def _check_handlebody(f):
    failed = handlebody_failures(decode_rho2(f))
    return _verdict({"member": not failed, "failed": list(failed)}, not failed)


def _mul(x, y):
    x, y = _group_element(x), _group_element(y)
    if type(x) is not type(y):
        raise ValueError("cannot multiply elements of different groups")
    return _encode(x * y), 0


def _inv(x):
    x = _group_element(x)
    return _encode(rho2_inv(x) if isinstance(x, Rho2Element) else phi2_inv(x)), 0


def _compute_E(m):
    R = decode_symplectic(m)
    E = compute_E(R)
    return {"genus": R.genus,
            "E": [{"idx": list(t), "value": v} for t, v in sorted(E.items()) if v != 0]}, 0


def _validate_entry(doc):
    entry = entry_from_dict(doc)
    report = validate_entry(entry)
    return _verdict({"name": entry.name, "passed": report.passed,
                     "failures": list(report.failures)}, report.passed)


def _basis(doc):
    g = _genus_of(doc)
    return {"genus": g, "basis": [encode_rho2(f) for f in torelli_handlebody_basis(g)]}, 0


def _catalog_list(doc):
    g = _genus_of(doc)
    return {"genus": g, "entries": [
        {"name": c.name, "claimed_handlebody": c.claimed_handlebody}
        for c in catalog(g)]}, 0


_ELEMENT = ("element", "semidirect-product element {r, R}")
_POINT = ("point", "quotient element {eta, y}")
_MATRIX = ("matrix", "symplectic matrix {genus, rows}")
_GENUS = ("genus", 'object with a "genus" field')

VERBS = {
    "check-mcg": ("is (r, R) in the image of the mapping class group",
                  (_ELEMENT,), _check_mcg),
    "check-handlebody": ("is (r, R) in the image of the handlebody subgroup",
                         (_ELEMENT,), _check_handlebody),
    "lift": ("canonical mapping-class image over a symplectic matrix",
             (_MATRIX,), lambda m: (encode_rho2(canonical_lift(decode_symplectic(m))), 0)),
    "rho2": ("level-two representation of a free-group endomorphism",
             (("endo", "endomorphism {genus, images}"),),
             lambda e: (encode_rho2(tau2_from_endo(decode_endo(e))), 0)),
    "act": ("apply a semidirect-product element to a nilpotent-quotient point",
            (_ELEMENT, _POINT),
            lambda f, p: (encode_phi2(act_on_phi2(decode_rho2(f), decode_phi2(p))), 0)),
    "eval-word": ("image of a free-group word in the nilpotent quotient",
                  (("word", "word {genus, letters}"),),
                  lambda w: (encode_phi2(phi2_eval_word(decode_word(w))), 0)),
    "phi2-member": ("does {eta, y} lie in the image of the free group",
                    (_POINT,), lambda p: _member(phi2_pi_membership(decode_phi2(p)))),
    "b-member": ("does {eta, y} lie in the image of the handlebody kernel subgroup",
                 (_POINT,), lambda p: _member(phi2_b_membership(decode_phi2(p)))),
    "mul": ("group product (semidirect product or nilpotent quotient)",
            (("left", "element"), ("right", "element")), _mul),
    "inv": ("group inverse (semidirect product or nilpotent quotient)",
            (("element", "element"),), _inv),
    "compute-E": ("parity obstruction values of a symplectic matrix", (_MATRIX,), _compute_E),
    "validate-entry": ("run all self-certification checks on a catalog entry",
                       (("entry", "catalog entry document"),), _validate_entry),
    "basis": ("free basis of the Torelli part of the handlebody image", (_GENUS,), _basis),
    "catalog-list": ("names and handlebody claims of the shipped catalog",
                     (_GENUS,), _catalog_list),
}


# ---------------------------------------------------------------- dispatch

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jmrep",
        description="Exact computations in the level-two Johnson-Morita "
                    "representation of the one-boundary mapping class group.")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (help_text, fields, _) in VERBS.items():
        p = sub.add_parser(verb, help=help_text)
        for field, field_help in fields:
            p.add_argument(field, help=field_help + ' (path or "-")')
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _, fields, handler = VERBS[args.verb]
    try:
        out, code = handler(*_load([getattr(args, field) for field, _ in fields]))
        sys.stdout.write(canonical_dumps(out) + "\n")
    except (JmrepError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code
