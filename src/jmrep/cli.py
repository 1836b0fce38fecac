"""Command-line front end.

Every verb reads JSON documents (file paths, or "-" for stdin), writes one
canonical JSON line to stdout, and exits with:

    0   true / member / success
    1   false / non-member / failed validation
    2   malformed input or internal error (diagnostic on stderr)

Genus is always inferred from the input documents, never from a flag.
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import catalog, entry_from_dict, validate_entry
from .errors import JmrepError
from .jsonio import (
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
from .phi2 import phi2_b_membership, phi2_inv, phi2_mul, phi2_pi_membership
from .phi2 import phi2_eval_word
from .rho2 import act_on_phi2, rho2_inv, rho2_mul, tau2_from_endo


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
            docs.append(json.loads(text))
        except RecursionError:
            raise ValueError("input is nested too deeply") from None
    return docs


def _emit(doc) -> None:
    sys.stdout.write(canonical_dumps(doc) + "\n")


def _group_element(doc):
    if isinstance(doc, dict) and "r" in doc and "R" in doc:
        return "rho2", decode_rho2(doc)
    if isinstance(doc, dict) and "eta" in doc and "y" in doc:
        return "phi2", decode_phi2(doc)
    raise ValueError("expected {'r','R'} or {'eta','y'}")


# ---------------------------------------------------------------- verbs

def _cmd_check_mcg(args) -> int:
    odd = mcg_odd_triples(decode_rho2(_load([args.element])[0]))
    member = not odd
    _emit({"member": member, "E_odd_triples": [list(t) for t in odd]})
    return 0 if member else 1


def _cmd_check_handlebody(args) -> int:
    f = decode_rho2(_load([args.element])[0])
    failed = handlebody_failures(f)
    _emit({"member": not failed, "failed": list(failed)})
    return 0 if not failed else 1


def _cmd_lift(args) -> int:
    R = decode_symplectic(_load([args.matrix])[0])
    _emit(encode_rho2(canonical_lift(R)))
    return 0


def _cmd_rho2(args) -> int:
    e = decode_endo(_load([args.endo])[0])
    _emit(encode_rho2(tau2_from_endo(e)))
    return 0


def _cmd_act(args) -> int:
    f_doc, p_doc = _load([args.element, args.point])
    f = decode_rho2(f_doc)
    p = decode_phi2(p_doc)
    _emit(encode_phi2(act_on_phi2(f, p)))
    return 0


def _cmd_eval_word(args) -> int:
    w = decode_word(_load([args.word])[0])
    _emit(encode_phi2(phi2_eval_word(w)))
    return 0


def _cmd_phi2_member(args) -> int:
    p = decode_phi2(_load([args.point])[0])
    member = phi2_pi_membership(p)
    _emit({"member": member})
    return 0 if member else 1


def _cmd_b_member(args) -> int:
    p = decode_phi2(_load([args.point])[0])
    member = phi2_b_membership(p)
    _emit({"member": member})
    return 0 if member else 1


def _cmd_mul(args) -> int:
    x_doc, y_doc = _load([args.left, args.right])
    kx, x = _group_element(x_doc)
    ky, y = _group_element(y_doc)
    if kx != ky:
        raise ValueError("cannot multiply elements of different groups")
    if kx == "rho2":
        _emit(encode_rho2(rho2_mul(x, y)))
    else:
        _emit(encode_phi2(phi2_mul(x, y)))
    return 0


def _cmd_inv(args) -> int:
    kind, x = _group_element(_load([args.element])[0])
    if kind == "rho2":
        _emit(encode_rho2(rho2_inv(x)))
    else:
        _emit(encode_phi2(phi2_inv(x)))
    return 0


def _cmd_compute_E(args) -> int:
    R = decode_symplectic(_load([args.matrix])[0])
    E = compute_E(R)
    nonzero = [{"idx": list(t), "value": v} for t, v in sorted(E.items()) if v != 0]
    _emit({"genus": R.genus, "E": nonzero})
    return 0


def _cmd_validate_entry(args) -> int:
    entry = entry_from_dict(_load([args.entry])[0])
    report = validate_entry(entry)
    _emit({"name": entry.name, "passed": report.passed,
           "failures": list(report.failures)})
    return 0 if report.passed else 1


def _cmd_basis(args) -> int:
    g = _genus_of(_load([args.genus])[0])
    basis = torelli_handlebody_basis(g)
    _emit({"genus": g, "basis": [encode_rho2(f) for f in basis]})
    return 0


def _cmd_catalog_list(args) -> int:
    g = _genus_of(_load([args.genus])[0])
    entries = catalog(g)
    _emit({"genus": g, "entries": [
        {"name": c.name, "claimed_handlebody": c.claimed_handlebody}
        for c in entries]})
    return 0


# ---------------------------------------------------------------- dispatch

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jmrep",
        description="Exact computations in the level-two Johnson-Morita "
                    "representation of the one-boundary mapping class group.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, func, help_text, *fields):
        p = sub.add_parser(name, help=help_text)
        for field, field_help in fields:
            p.add_argument(field, help=field_help + ' (path or "-")')
        p.set_defaults(func=func)

    add("check-mcg", _cmd_check_mcg,
        "is (r, R) in the image of the mapping class group",
        ("element", "semidirect-product element {r, R}"))
    add("check-handlebody", _cmd_check_handlebody,
        "is (r, R) in the image of the handlebody subgroup",
        ("element", "semidirect-product element {r, R}"))
    add("lift", _cmd_lift,
        "canonical mapping-class image over a symplectic matrix",
        ("matrix", "symplectic matrix {genus, rows}"))
    add("rho2", _cmd_rho2,
        "level-two representation of a free-group endomorphism",
        ("endo", "endomorphism {genus, images}"))
    add("act", _cmd_act,
        "apply a semidirect-product element to a nilpotent-quotient point",
        ("element", "semidirect-product element {r, R}"),
        ("point", "quotient element {eta, y}"))
    add("eval-word", _cmd_eval_word,
        "image of a free-group word in the nilpotent quotient",
        ("word", "word {genus, letters}"))
    add("phi2-member", _cmd_phi2_member,
        "does {eta, y} lie in the image of the free group",
        ("point", "quotient element {eta, y}"))
    add("b-member", _cmd_b_member,
        "does {eta, y} lie in the image of the handlebody kernel subgroup",
        ("point", "quotient element {eta, y}"))
    add("mul", _cmd_mul,
        "group product (semidirect product or nilpotent quotient)",
        ("left", "element"), ("right", "element"))
    add("inv", _cmd_inv,
        "group inverse (semidirect product or nilpotent quotient)",
        ("element", "element"))
    add("compute-E", _cmd_compute_E,
        "parity obstruction values of a symplectic matrix",
        ("matrix", "symplectic matrix {genus, rows}"))
    add("validate-entry", _cmd_validate_entry,
        "run all self-certification checks on a catalog entry",
        ("entry", "catalog entry document"))
    add("basis", _cmd_basis,
        "free basis of the Torelli part of the handlebody image",
        ("genus", 'object with a "genus" field'))
    add("catalog-list", _cmd_catalog_list,
        "names and handlebody claims of the shipped catalog",
        ("genus", 'object with a "genus" field'))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (JmrepError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
