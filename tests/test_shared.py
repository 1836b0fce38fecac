"""The checks and the repr rule that every module shares (linalg._require_genus,
_check_genus, _check_operand, _check_index and _fmt_terms), pinned by their
exact messages and output, and two lints: of the package's imports, and of
methods that only the tests call."""

import ast
import operator
import re
from pathlib import Path

import pytest

import jmrep
from jmrep import (
    EndomorphismSpec,
    FreeWord,
    GenusMismatch,
    HomHW2,
    HVector,
    Phi2Element,
    Rho2Element,
    SymplecticMatrix,
    Wedge2,
    Wedge3,
    basis_label,
    basis_vector,
    boundary_word,
    endo_apply,
    endo_compose,
    half_wedge2_of,
    make_J,
    pairing,
    torelli_handlebody_basis,
    wedge2_sp_action,
    wedge3_apply,
    wedge3_sp_action,
    zero_vector,
)

ZEROS = {
    "HVector": zero_vector,
    "Wedge2": Wedge2.zero,
    "Wedge3": Wedge3.zero,
    "HomHW2": HomHW2.zero,
    "FreeWord": FreeWord.identity,
}
OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


@pytest.mark.parametrize("name, op", [
    *((name, op) for name in ("HVector", "Wedge2", "Wedge3", "HomHW2") for op in "+-"),
    ("FreeWord", "*"),
])
def test_binary_operations_check_their_operand(name, op):
    make, apply = ZEROS[name], OPS[op]
    foreign = FreeWord.identity(2) if name != "FreeWord" else zero_vector(2)
    for other, got in ((3, "int"), ("x", "str"), (foreign, type(foreign).__name__)):
        with pytest.raises(TypeError) as exc:
            apply(make(2), other)
        assert str(exc.value) == f"expected {name}, got {got}"
    for g, h in ((2, 3), (3, 1)):
        with pytest.raises(GenusMismatch) as exc:
            apply(make(g), make(h))
        assert str(exc.value) == f"genus {g} vs {h}"


ident = SymplecticMatrix.identity
GENUS_CHECKS = {  # (genus a, genus b) -> a call whose operands have those genera
    "IntMatrix * IntMatrix": lambda a, b: ident(a) * ident(b),
    "IntMatrix * HVector": lambda a, b: ident(a) * zero_vector(b),
    "pairing": lambda a, b: pairing(zero_vector(a), zero_vector(b)),
    "half_wedge2_of": lambda a, b: half_wedge2_of(zero_vector(a), zero_vector(b)),
    "HomHW2.precompose": lambda a, b: HomHW2.zero(a).precompose(ident(b)),
    "wedge3_apply": lambda a, b: wedge3_apply(Wedge3.zero(a), zero_vector(b)),
    "wedge2_sp_action": lambda a, b: wedge2_sp_action(ident(a), Wedge2.zero(b)),
    "wedge3_sp_action": lambda a, b: wedge3_sp_action(ident(a), Wedge3.zero(b)),
    "endo_apply": lambda a, b: endo_apply(EndomorphismSpec.identity(a), FreeWord.identity(b)),
    "endo_compose": lambda a, b: endo_compose(EndomorphismSpec.identity(a),
                                              EndomorphismSpec.identity(b)),
    "Phi2Element": lambda a, b: Phi2Element(Wedge2.zero(a), zero_vector(b)),
    "Rho2Element": lambda a, b: Rho2Element(Wedge3.zero(a), ident(b)),
}


@pytest.mark.parametrize("name", GENUS_CHECKS)
def test_mixed_genera_name_both_genera_in_order(name):
    for g, h in ((2, 3), (3, 1)):
        with pytest.raises(GenusMismatch) as exc:
            GENUS_CHECKS[name](g, h)
        assert str(exc.value) == f"genus {g} vs {h}"


GENUS_RULE = {  # genus -> a call that takes a genus of its own
    "Wedge2": Wedge2,
    "FreeWord": FreeWord,
    "boundary_word": boundary_word,
    "make_J": make_J,
    "torelli_handlebody_basis": torelli_handlebody_basis,
    "EndomorphismSpec": lambda g: EndomorphismSpec(g, ()),
}


@pytest.mark.parametrize("name", GENUS_RULE)
def test_a_genus_must_be_an_int_of_at_least_one(name):
    for g in (0, -1, True, 2.0):
        with pytest.raises(ValueError) as exc:
            GENUS_RULE[name](g)
        assert str(exc.value) == f"genus must be an integer >= 1, got {g!r}"


@pytest.mark.parametrize("value, text", [
    (HVector((0, 1, -1, 2, -2, 3)), "HVector(+a2 -a3 +2*b1 -2*b2 +3*b3)"),
    (HVector((0, 0)), "HVector(0)"),
    (Wedge2(2, {(1, 2): 2, (1, 3): -2, (1, 4): 4, (2, 3): -4, (2, 4): 1, (3, 4): -1}),
     "Wedge2(g=2: +a1^a2 -a1^b1 +2*a1^b2 -2*a2^b1 +1/2*a2^b2 -1/2*b1^b2)"),
    (Wedge3(3, {(1, 2, 3): 3, (1, 2, 4): -3, (1, 5, 6): 1, (2, 3, 4): 0, (4, 5, 6): -2}),
     "Wedge3(g=3: +3/2*a1^a2^a3 -3/2*a1^a2^b1 +1/2*a1^b2^b3 -b1^b2^b3)"),
    (Wedge3.zero(1), "Wedge3(g=1: 0)"),
    (HomHW2([Wedge2(2, {(1, 2): 1, (3, 4): -3}), Wedge2.zero(2), Wedge2(2, {(1, 4): -1}),
             Wedge2(2, {(2, 3): 4, (2, 4): -2})]),
     "HomHW2(a1 -> +1/2*a1^a2 -3/2*b1^b2, a2 -> 0, b1 -> -1/2*a1^b2, b2 -> +2*a2^b1 -a2^b2)"),
    (EndomorphismSpec.from_letter_lists(2, [[1, 3], [], [-3], [4, -1, 2]]),
     "EndomorphismSpec(g=2: x1 -> 1 3, x2 -> 1, x3 -> -3, x4 -> 4 -1 2)"),
])
def test_repr_golden(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("g", [1, 2, 3])
def test_basis_indices_outside_1_to_2g_raise(g):
    w, r = Wedge2.basis(g, 1, 2), Wedge3.zero(g)
    for i in (0, -1, 2 * g + 1, 1.5, True):
        for call in (lambda: basis_label(i, g), lambda: basis_vector(g, i),
                     lambda: w.twice(i, 1), lambda: w.twice(2, i), lambda: r.twice(1, i, 2)):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == f"basis index {i} out of range for genus {g}"
    assert w.twice(1, 2) == 2 and w.twice(2, 1) == -2


def _unused_imports(path: Path) -> list:
    """Names a module imports and never reads (from __future__ aside)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in used)


def test_no_module_has_an_unused_import():
    # __init__.py imports names only to re-export them
    modules = sorted(p for p in Path(jmrep.__file__).parent.glob("*.py")
                     if p.name != "__init__.py")
    assert len(modules) > 5
    assert [u for p in modules for u in _unused_imports(p)] == []


# methods that only the tests and their oracles call, each kept for a reason
TEST_ONLY_METHODS = {
    "is_integral": "the acceptance checks compare membership over R = I with integrality",
}


def test_every_class_method_has_a_caller_outside_the_tests():
    root = Path(__file__).resolve().parent.parent
    defined = set()
    for path in (root / "src" / "jmrep").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                defined.update(item.name for item in node.body
                               if isinstance(item, ast.FunctionDef)
                               and not (item.name.startswith("__") and item.name.endswith("__")))
    text = "\n".join(path.read_text() for folder in ("src", "bench", "demos", "tools")
                     for path in (root / folder).rglob("*.py"))
    assert len(defined) > 10
    uncalled = {name for name in defined if not re.search(rf"\.{name}\b", text)}
    assert uncalled == set(TEST_ONLY_METHODS)
