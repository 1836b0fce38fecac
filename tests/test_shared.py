"""The checks and the repr rule that every module shares (linalg._require_genus,
_check_genus, _check_operand, _check_index, _check_images and _fmt_terms),
pinned by their exact messages and output, and three lints: of the package's
imports, and of the methods and the public functions that only the tests call."""

import ast
import operator
from pathlib import Path

import pytest

import jmrep
from jmrep import (
    EndomorphismSpec,
    FreeWord,
    GenusMismatch,
    HomHW2,
    HVector,
    IntMatrix,
    Phi2Element,
    Rho2Element,
    SymplecticMatrix,
    Wedge2,
    Wedge3,
    basis_label,
    basis_vector,
    boundary_word,
    catalog,
    compute_E,
    endo_apply,
    endo_compose,
    half_wedge2_of,
    kappa_hom,
    make_J,
    morita_shift,
    pairing,
    symplectic_inverse,
    torelli_handlebody_basis,
    transvection,
    wedge2_sp_action,
    wedge3_apply,
    wedge3_of,
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
    "wedge3_of v": lambda a, b: wedge3_of(zero_vector(a), zero_vector(b), zero_vector(a)),
    "wedge3_of w": lambda a, b: wedge3_of(zero_vector(a), zero_vector(a), zero_vector(b)),
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
    "zero_vector": zero_vector,
    "basis_vector": lambda g: basis_vector(g, 1),
    "IntMatrix.identity": IntMatrix.identity,
    "SymplecticMatrix.identity": SymplecticMatrix.identity,
    "catalog": catalog,
    "HomHW2.zero": HomHW2.zero,
    "kappa_hom": kappa_hom,
    "EndomorphismSpec.identity": EndomorphismSpec.identity,
    "morita_shift": morita_shift,
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
    (Phi2Element(Wedge2(1, {(1, 2): 1}), HVector((2, -1))),
     "Phi2Element(eta=Wedge2(g=1: +1/2*a1^b1), y=HVector(+2*a1 -b1))"),
    (Rho2Element(Wedge3.zero(1), SymplecticMatrix([[1, 1], [0, 1]])),
     "Rho2Element(r=Wedge3(g=1: 0), R=SymplecticMatrix([1 1; 0 1]))"),
    (FreeWord(2, (1, -3, 4)), "FreeWord(g=2: x1 x3^-1 x4)"),
    (FreeWord(2), "FreeWord(g=2: 1)"),
])
def test_repr_golden(value, text):
    assert repr(value) == text


A1_PLUS_B1 = transvection(HVector((1, 0, 0, 1, 0, 0)))  # a1 + b1 at g = 3
EQUAL_PAIRS = {  # equal values built along two paths
    "HVector": (HVector((1, 2)), basis_vector(1, 1) + 2 * basis_vector(1, 2)),
    "Phi2Element": (Phi2Element(Wedge2(1, {(2, 1): -2}), HVector((1, 0))),
                    Phi2Element(Wedge2.basis(1, 1, 2), basis_vector(1, 1))),
    "Rho2Element": (Rho2Element(Wedge3(3, {(3, 2, 1): -2}), A1_PLUS_B1),
                    Rho2Element(Wedge3.basis(3, 1, 2, 3), SymplecticMatrix(A1_PLUS_B1.rows))),
    "HomHW2": (HomHW2([Wedge2.basis(1, 1, 2), Wedge2.zero(1)]),
               HomHW2([Wedge2(1, {(2, 1): -2}), Wedge2.basis(1, 1, 1)])),
}


@pytest.mark.parametrize("name", EQUAL_PAIRS)
def test_equal_values_hash_equal(name):
    a, b = EQUAL_PAIRS[name]
    assert a is not b and a == b
    assert hash(a) == hash(b) and len({a, b}) == 1


WRONG_TYPES = {  # a call given an operand of the wrong type -> the message of its TypeError
    "Phi2Element": (lambda: Phi2Element(zero_vector(2), Wedge2.zero(2)),
                    "Phi2Element needs (Wedge2, HVector)"),
    "Rho2Element r": (lambda: Rho2Element(Wedge2.zero(2), ident(2)), "r must be a Wedge3"),
    "Rho2Element R": (lambda: Rho2Element(Wedge3.zero(2), IntMatrix.identity(2)),
                      "R must be a SymplecticMatrix"),
    "compute_E": (lambda: compute_E(IntMatrix.identity(2)), "compute_E needs a SymplecticMatrix"),
    "symplectic_inverse": (lambda: symplectic_inverse(IntMatrix.identity(2)),
                           "symplectic_inverse needs a SymplecticMatrix"),
    "EndomorphismSpec": (lambda: EndomorphismSpec(1, [FreeWord(1), zero_vector(1)]),
                         "images must be FreeWord instances"),
}


@pytest.mark.parametrize("name", WRONG_TYPES)
def test_a_wrong_operand_type_raises_type_error(name):
    call, message = WRONG_TYPES[name]
    with pytest.raises(TypeError) as exc:
        call()
    assert str(exc.value) == message


def test_products_with_a_foreign_operand_are_not_implemented():
    v, w, M = zero_vector(1), Wedge2.zero(1), IntMatrix.identity(1)
    for value, n in ((v, True), (v, 1.5), (w, True), (w, 0.5)):
        assert value.__rmul__(n) is NotImplemented
        with pytest.raises(TypeError):
            n * value
    assert M.__mul__(3) is NotImplemented
    with pytest.raises(TypeError):
        M * 3


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


ROOT = Path(__file__).resolve().parent.parent


def _trees(*folders):
    return [ast.parse(path.read_text(), filename=str(path))
            for folder in folders for path in sorted((ROOT / folder).rglob("*.py"))]


def _package_defs():
    """(the methods of src/jmrep's classes, its public module-level functions);
    dunder methods are left out: operators call them, so no name search sees their callers."""
    methods, functions = set(), set()
    for tree in _trees("src/jmrep"):
        functions.update(node.name for node in tree.body
                         if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                methods.update(item.name for item in node.body
                               if isinstance(item, ast.FunctionDef)
                               and not (item.name.startswith("__") and item.name.endswith("__")))
    return methods, functions


def _names_read_outside_the_tests():
    """(the ast.Name ids, the ast.Attribute attrs) in src/, bench/, demos/ and tools/:
    strings, a def's own name and __init__.py's import aliases are not among them."""
    names, attrs = set(), set()
    for tree in _trees("src", "bench", "demos", "tools"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return names, attrs


# methods that only the tests and their oracles call, each kept for a reason
TEST_ONLY_METHODS = {
    "is_integral": "the acceptance checks compare membership over R = I with integrality",
}
# public functions that only the tests and their oracles call, each kept for a reason
TEST_ONLY_FUNCTIONS = {
    "kappa_hom": "the oracle in test_pipeline_kernels for tau2_from_endo's closed-form "
                 "kappa correction",
    "wedge3_of": "the oracle helpers.ref_morita_shift builds Morita's shift from it",
    "wedge3_apply": "r(y), the paper's induced homomorphism, which acceptance check 9 evaluates",
    "morita_tau2_prime": "the paper's comparison with Morita's tau2' (acceptance check 9)",
    "principal_crossed_hom": "the paper's comparison with Morita's tau2' (acceptance check 9)",
    "tau2_tilde_from_endo": "W and R, the paper's raw degree-two data; the tau2 oracle in "
                            "test_pipeline_kernels starts from it",
}


def test_every_class_method_has_a_caller_outside_the_tests():
    methods, _ = _package_defs()
    _, attrs = _names_read_outside_the_tests()
    assert len(methods) > 10
    assert methods - attrs == set(TEST_ONLY_METHODS)


def test_every_public_function_has_a_caller_outside_the_tests():
    _, functions = _package_defs()
    names, attrs = _names_read_outside_the_tests()
    assert len(functions) > 40
    assert functions - names - attrs == set(TEST_ONLY_FUNCTIONS)
