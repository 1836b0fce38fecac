"""Seeded input generators for the jmrep benchmark.

Every function takes an explicit random.Random, so a workload's inputs
follow from its seed alone.  The generators build values through jmrep's
public constructors but decide nothing with the functions the benchmark
measures, except where a value is defined by one (canonical lifts).
"""

from __future__ import annotations

import itertools
import json

import jmrep as jm

# Letter budget for composing random products; a product whose composite
# outgrows it is drawn again, so no timed composition ever trips it.
WORD_GUARD = 2000


def twist_entries(g: int) -> list:
    """The twist families at genus g, each with its explicit inverse.

    twist_a_i sends b_i to b_i a_i and twist_b_i sends a_i to a_i b_i; the
    other generators are fixed.  twist_b_i extends over the handlebody.
    """
    out = []
    for i in range(1, g + 1):
        for family, moved, appended, handlebody in (
            ("twist_a", g + i, i, False),
            ("twist_b", i, g + i, True),
        ):
            fwd = [[k] for k in range(1, 2 * g + 1)]
            inv = [[k] for k in range(1, 2 * g + 1)]
            fwd[moved - 1] = [moved, appended]
            inv[moved - 1] = [moved, -appended]
            out.append(jm.CatalogEntry(
                f"{family}_{i}",
                jm.EndomorphismSpec.from_letter_lists(g, fwd),
                jm.EndomorphismSpec.from_letter_lists(g, inv),
                handlebody,
            ))
    return out


def compose(specs, order, max_letters=WORD_GUARD):
    """The composite that applies specs[order[0]] first, then the rest in turn."""
    e = specs[order[0]]
    for k in order[1:]:
        e = jm.endo_compose(specs[k], e, max_letters=max_letters)
    return e


def random_product(rng, specs, max_factors=6) -> list:
    """Indices of 2..max_factors specs whose composite stays within WORD_GUARD."""
    while True:
        order = [rng.randrange(len(specs)) for _ in range(rng.randint(2, max_factors))]
        try:
            compose(specs, order)
        except jm.WordLengthExceeded:
            continue
        return order


def commutator_insertion(rng, g):
    """An endomorphism that is no mapping class: x_i -> x_i [x_j, x_(j+g)], the rest fixed.

    Its abelianization is the identity, so only wedge3_decode can reject it.
    """
    i, j = rng.sample(range(1, g + 1), 2)
    images = [[k] for k in range(1, 2 * g + 1)]
    images[i - 1] = [i, j, j + g, -j, -(j + g)]
    return jm.EndomorphismSpec.from_letter_lists(g, images)


def random_word(rng, g, max_len=12):
    letters = [s for s in range(-2 * g, 2 * g + 1) if s]
    return jm.FreeWord(g, [rng.choice(letters) for _ in range(rng.randint(1, max_len))])


def random_nonzero_vector(rng, g, bound=1):
    while True:
        coeffs = [rng.randint(-bound, bound) for _ in range(2 * g)]
        if any(coeffs):
            return jm.HVector(coeffs)


def transvection_product(rng, g, max_factors=6):
    """A random symplectic matrix: a product of transvections along small vectors."""
    R = jm.transvection(random_nonzero_vector(rng, g))
    for _ in range(rng.randint(0, max_factors - 1)):
        R = R * jm.transvection(random_nonzero_vector(rng, g))
    return R


def handlebody_matrix(rng, g, max_factors=6):
    """A random symplectic matrix with zero upper-right block (b-span preserved)."""
    R = jm.SymplecticMatrix.identity(g)
    for _ in range(rng.randint(1, max_factors)):
        coeffs = [0] * (2 * g)
        for i in rng.sample(range(g, 2 * g), rng.randint(1, min(2, g))):
            coeffs[i] = rng.choice((-1, 1))
        R = R * jm.transvection(jm.HVector(coeffs))
    return R


def integral_wedge3(rng, g, bound=2, keep=lambda t: True):
    """A random element of W3(H) (even doubled coefficients) on the triples keep() admits."""
    return jm.Wedge3(g, {
        t: 2 * rng.randint(-bound, bound)
        for t in itertools.combinations(range(1, 2 * g + 1), 3) if keep(t)
    })


def member(R, shift):
    """The mapping-class member over R: its canonical lift plus an integral shift."""
    return jm.Rho2Element(jm.canonical_lift(R).r + shift, R)


def non_member(rng, f):
    """f with one doubled coefficient shifted by 1, which breaks its parity."""
    g = f.genus
    t = rng.choice(list(itertools.combinations(range(1, 2 * g + 1), 3)))
    return jm.Rho2Element(f.r + jm.Wedge3(g, {t: 1}), f.R)


def pi_point(rng, g, bound=2):
    """A random point of phi_2(pi): eta's doubled coefficients match l_i l_j mod 2."""
    l = [rng.randint(-bound, bound) for _ in range(2 * g)]
    eta = {
        (i, j): l[i - 1] * l[j - 1] + 2 * rng.randint(-bound, bound)
        for i, j in itertools.combinations(range(1, 2 * g + 1), 2)
    }
    return jm.Phi2Element(jm.Wedge2(g, eta), jm.HVector(l))


def b_point(rng, g, bound=2):
    """A random point of phi_2(b): y in the b-span, no a^a terms, integral a^b terms."""
    l = [0] * g + [rng.randint(-bound, bound) for _ in range(g)]
    eta = {}
    for i, j in itertools.combinations(range(1, 2 * g + 1), 2):
        if j <= g:
            continue
        base = 0 if i <= g else l[i - 1] * l[j - 1]
        eta[(i, j)] = base + 2 * rng.randint(-bound, bound)
    return jm.Phi2Element(jm.Wedge2(g, eta), jm.HVector(l))


def non_pi_point(rng, g):
    """A point of Phi_2 outside phi_2(pi): one doubled eta coefficient has the wrong parity."""
    p = pi_point(rng, g)
    pair = rng.choice(list(itertools.combinations(range(1, 2 * g + 1), 2)))
    return jm.Phi2Element(p.eta + jm.Wedge2(g, {pair: 1}), p.y)


def non_b_point(rng, g):
    """A point of Phi_2 outside phi_2(b): its y has a nonzero a-coordinate."""
    p = b_point(rng, g)
    i = rng.randint(1, g)
    return jm.Phi2Element(p.eta, p.y + jm.basis_vector(g, i))


# ---------------------------------------------------------------- malformed documents

MALFORMED_KINDS = (
    "wrong_type", "wrong_length", "missing_field", "letter_out_of_range",
    "not_symplectic", "invalid_json",
)
# JSON values of every type, to put where a value of another type belongs
_OTHER_TYPES = ("x", True, 2.5, None, [1, 2], [[1], [2]], {"x": 1})
_FIXED_LENGTH = {"rows", "coeffs", "idx", "images", "inverse_images"}
_LETTERS = {"letters", "idx", "images", "inverse_images"}


def _nodes(doc, path=()):
    """(path, value) for every node below doc."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield path + (key,), value
        yield from _nodes(value, path + (key,))


def _json_type(value) -> str:
    """The JSON type, with arrays told apart by the type of their first element."""
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, list):
        return "list[" + (_json_type(value[0]) if value else "") + "]"
    return type(value).__name__


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def malformed_targets(kind, doc) -> list:
    """Paths in doc where a mutation of this kind applies ([()] for whole-text kinds)."""
    if kind == "invalid_json":
        return [()]
    out = []
    for path, value in _nodes(doc):
        key = path[-1]
        if kind == "wrong_type":
            out.append(path)
        elif kind == "wrong_length":
            if isinstance(value, list) and (key in _FIXED_LENGTH or path[-2:-1] == ("rows",)):
                out.append(path)
        elif kind == "missing_field":
            if isinstance(key, str):
                out.append(path)
        elif kind == "letter_out_of_range":
            if (_is_int(value) and key != "genus"
                    and _LETTERS.intersection(k for k in path if isinstance(k, str))):
                out.append(path)
        elif kind == "not_symplectic":
            if _is_int(value) and "rows" in path:
                out.append(path)
    return out


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _symplectic(rows) -> bool:
    """M J M~ == J, computed here independently of jmrep."""
    n = len(rows)
    g = n // 2

    def pair(u, v):  # u J v~ with J = (0 -I; I 0)
        return sum(-u[i] * v[i + g] + u[i + g] * v[i] for i in range(g))

    return all(
        pair(rows[i], rows[j]) == (-1 if j == i + g else 1 if i == j + g else 0)
        for i in range(n) for j in range(n)
    )


def malformed(rng, kind, doc, g) -> str:
    """The text of a malformed variant of doc (a JSON value at genus g)."""
    text = json.dumps(doc)
    if kind == "invalid_json":
        return text[:rng.randrange(len(text))]
    targets = malformed_targets(kind, doc)
    rng.shuffle(targets)
    for path in targets:
        doc = json.loads(text)
        parent, key = _get(doc, path[:-1]), path[-1]
        value = parent[key]
        if kind == "wrong_type":
            accepted = {_json_type(value)}
            if isinstance(value, dict) and "letters" in value:
                accepted.add("list[int]")  # a bare letter array is also a word
            parent[key] = rng.choice([v for v in _OTHER_TYPES if _json_type(v) not in accepted])
        elif kind == "wrong_length":
            if value and rng.random() < 0.5:
                value.pop()
            else:
                value.append(value[-1] if value else 1)
        elif kind == "missing_field":
            del parent[key]
        elif kind == "letter_out_of_range":
            parent[key] = rng.choice((0, 2 * g + 1, -(2 * g + 1)))
        elif kind == "not_symplectic":
            parent[key] = value + rng.choice((-1, 1))
            rows = _get(doc, path[:path.index("rows") + 1])
            if _symplectic(rows):
                continue
        return json.dumps(doc)
    raise ValueError(f"no {kind} mutation applies to {text}")
