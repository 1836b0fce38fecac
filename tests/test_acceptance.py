"""Acceptance suite: ten end-to-end checks, one printed verdict line each.

Every check is exact (integer arithmetic throughout) and seeded, so a
failure reproduces from the criterion number alone.  The checks gate the
package: the membership theorems, the representation computed from free
group endomorphisms, and the algebraic laws they rest on.
"""

import itertools
import random

from jmrep import (
    Phi2Element,
    Rho2Element,
    SymplecticMatrix,
    Wedge2,
    Wedge3,
    WordLengthExceeded,
    act_on_phi2,
    basis_vector,
    canonical_lift,
    catalog,
    endo_apply,
    endo_compose,
    handlebody_membership,
    mcg_membership,
    morita_shift,
    morita_tau2_prime,
    phi2_eval_word,
    phi2_inv,
    phi2_mul,
    phi2_pi_membership,
    phi2_word_synthesis,
    preserves_phi2_b,
    rho2_inv,
    rho2_mul,
    sp_action_on_hom,
    tau2_from_endo,
    torelli_handlebody_basis,
    transvection,
    validate_entry,
    wedge2_sp_action,
    wedge3_apply,
    wedge3_decode,
    wedge3_embed,
    wedge3_sp_action,
)
from helpers import (
    WORD_GUARD,
    catalog_specs,
    rand_catalog_product,
    rand_integral_wedge3,
    rand_member,
    rand_phi2,
    rand_symplectic,
    rand_vector,
    rand_wedge3,
    rand_word,
)


def _report(capsys, num, label, total, failures):
    verdict = "PASS" if not failures else "FAIL"
    detail = f"{total} cases"
    if failures:
        detail += f", {len(failures)} failed, first: {failures[0]}"
    with capsys.disabled():
        print(f"[{verdict}] criterion {num:02d}: {label} ({detail})")
    assert not failures, failures[0]


def _validated_matrix_pool(g):
    pool = []
    for entry in catalog(g):
        assert validate_entry(entry).passed
        pool.append(SymplecticMatrix(entry.spec.abelianization().rows))
    for k in range(1, 2 * g + 1):
        pool.append(transvection(basis_vector(g, k)))
    return pool


def test_c01_fiber_over_identity_is_the_integral_lattice(capsys):
    rng = random.Random(31001)
    failures, total = [], 0
    for g in (2, 3):
        ident = SymplecticMatrix.identity(g)
        for n in range(200):
            r = rand_wedge3(rng, g) if n % 2 else rand_integral_wedge3(rng, g)
            total += 1
            if mcg_membership(Rho2Element(r, ident)) != r.is_integral():
                failures.append((g, n, r))
    _report(capsys, 1, "fiber over the identity is exactly the integral lattice",
            total, failures)


def test_c02_membership_is_a_coset_of_the_integral_lattice(capsys):
    rng = random.Random(31002)
    failures, total = [], 0
    for g in (2, 3):
        pool = _validated_matrix_pool(g)
        for n in range(50):
            R = SymplecticMatrix.identity(g)
            for _ in range(rng.randint(1, 10)):
                R = R * rng.choice(pool)
            lift = canonical_lift(R)
            for m in range(20):
                if m % 2:
                    r = rand_wedge3(rng, g)
                else:
                    r = lift.r + rand_integral_wedge3(rng, g)
                total += 1
                expected = (r - lift.r).is_integral()
                if mcg_membership(Rho2Element(r, R)) != expected:
                    failures.append((g, n, m))
    _report(capsys, 2, "membership over R is the coset of the canonical lift",
            total, failures)


def test_c03_every_catalog_product_satisfies_the_congruences(capsys):
    rng = random.Random(31003)
    g = 2
    specs = catalog_specs(g)
    failures, total = [], 0
    for spec in specs:
        total += 1
        if not mcg_membership(tau2_from_endo(spec)):
            failures.append(("entry", spec))
    for n in range(500):
        e = rand_catalog_product(rng, g, specs=specs, max_factors=8)
        total += 1
        if not mcg_membership(tau2_from_endo(e)):
            failures.append(("product", n))
    _report(capsys, 3, "catalog entries and 500 products land in the image",
            total, failures)


def test_c04_action_matches_word_substitution(capsys):
    rng = random.Random(31004)
    failures, total = [], 0
    for g in (2, 3):
        specs = catalog_specs(g)
        for n in range(100):
            e = rand_catalog_product(rng, g, specs=specs, max_factors=6)
            w = rand_word(rng, g, max_len=12)
            total += 1
            lhs = act_on_phi2(tau2_from_endo(e), phi2_eval_word(w))
            rhs = phi2_eval_word(endo_apply(e, w))
            if lhs != rhs:
                failures.append((g, n, w.letters))
    _report(capsys, 4, "acting on the quotient agrees with substituting in words",
            total, failures)


def test_c05_representation_is_a_homomorphism(capsys):
    rng = random.Random(31005)
    failures, total = [], 0
    for g in (2, 3):
        specs = catalog_specs(g)
        for n in range(50):
            while True:
                try:
                    e1 = rand_catalog_product(rng, g, specs=specs, max_factors=4)
                    e2 = rand_catalog_product(rng, g, specs=specs, max_factors=4)
                    composite = endo_compose(e1, e2, max_letters=WORD_GUARD)
                    break
                except WordLengthExceeded:
                    continue
            total += 1
            if tau2_from_endo(composite) != rho2_mul(tau2_from_endo(e1),
                                                     tau2_from_endo(e2)):
                failures.append((g, n))
    _report(capsys, 5, "composite endomorphisms map to products of pairs",
            total, failures)


def _synthesized_pi_point(rng, g):
    y = rand_vector(rng, g, 2)
    l = y.coeffs
    terms = {}
    for i, j in itertools.combinations(range(1, 2 * g + 1), 2):
        terms[(i, j)] = l[i - 1] * l[j - 1] + 2 * rng.randint(-2, 2)
    target = Phi2Element(Wedge2(g, terms), y)
    word = phi2_word_synthesis(target)
    assert phi2_eval_word(word) == target
    return target


def test_c06_members_preserve_the_image_of_the_free_group(capsys):
    rng = random.Random(31006)
    failures, total = [], 0
    for g in (2, 3):
        for n in range(50):
            f = rand_member(rng, g)
            p = _synthesized_pi_point(rng, g)
            total += 1
            if not phi2_pi_membership(act_on_phi2(f, p)):
                failures.append((g, n))
    _report(capsys, 6, "members keep synthesized free-group points inside the image",
            total, failures)


def _block_triangular_symplectic(rng, g):
    R = SymplecticMatrix.identity(g)
    for _ in range(rng.randint(1, 6)):
        v = basis_vector(g, g + rng.randint(1, g))
        if rng.random() < 0.5:
            w = basis_vector(g, g + rng.randint(1, g))
            if w != v:
                v = v + w
        R = R * transvection(v)
    return R


def test_c07_handlebody_congruences_match_the_dynamical_test(capsys):
    rng = random.Random(31007)
    failures, total = [], 0
    verdicts = set()
    for g in (2, 3):
        for n in range(100):
            R = _block_triangular_symplectic(rng, g)
            lift = canonical_lift(R)
            shift = rand_integral_wedge3(rng, g, 2)
            if n % 2:
                # strip all-a triples so accepting cases also occur
                shift = Wedge3(g, {t: c for t, c in shift.terms() if t[2] > g})
            f = Rho2Element(lift.r + shift, R)
            total += 1
            left = handlebody_membership(f)
            right = preserves_phi2_b(f)
            verdicts.add(left)
            if left != right:
                failures.append((g, n, left, right))
    if verdicts != {True, False}:
        failures.append(("degenerate sample", verdicts))
    _report(capsys, 7, "congruence test equals preservation of the handlebody image",
            total, failures)


def test_c08_basis_elements_pass_and_a_triple_perturbations_fail(capsys):
    g = 3
    failures, total = [], 0
    a_triple = Wedge3.basis(g, 1, 2, 3)
    for f in torelli_handlebody_basis(g):
        total += 1
        if not handlebody_membership(f):
            failures.append(("basis", f.r.terms()))
        for sign in (1, -1):
            perturbed = Rho2Element(f.r + (a_triple if sign > 0 else -a_triple), f.R)
            total += 1
            if handlebody_membership(perturbed):
                failures.append(("perturbed", f.r.terms(), sign))
    _report(capsys, 8, "basis passes, every all-a perturbation of it fails",
            total, failures)


def test_c09_variant_crossed_map_differs_by_the_principal_shift(capsys):
    rng = random.Random(31009)
    failures, total = [], 0
    for g in (2, 3):
        m = morita_shift(g)
        for n in range(50):
            f = rand_member(rng, g)
            prime = morita_tau2_prime(f)
            Rinv = f.R.inverse()
            total += 1
            for k in range(1, 2 * g + 1):
                y = basis_vector(g, k)
                got = prime.images[k - 1] - wedge3_apply(f.r, y)
                want = wedge3_apply(m, y) - wedge2_sp_action(
                    f.R, wedge3_apply(m, Rinv * y))
                if got != want:
                    failures.append((g, n, k))
                    break
    _report(capsys, 9, "variant crossed map minus the embedding is the fixed principal shift",
            total, failures)


def test_c10_algebraic_law_suite(capsys):
    rng = random.Random(31010)
    failures, total = [], 0

    for n in range(500):
        g = rng.choice((1, 2, 3))
        p, q, s = (rand_phi2(rng, g) for _ in range(3))
        ident = Phi2Element.identity(g)
        total += 1
        ok = (
            phi2_mul(phi2_mul(p, q), s) == phi2_mul(p, phi2_mul(q, s))
            and phi2_mul(p, ident) == p == phi2_mul(ident, p)
            and phi2_mul(p, phi2_inv(p)) == ident == phi2_mul(phi2_inv(p), p)
        )
        if not ok:
            failures.append(("phi2 laws", n))

    for n in range(500):
        g = rng.choice((1, 2, 3))
        f, h, k = (
            Rho2Element(rand_wedge3(rng, g), rand_symplectic(rng, g))
            for _ in range(3)
        )
        ident = Rho2Element.identity(g)
        total += 1
        ok = (
            rho2_mul(rho2_mul(f, h), k) == rho2_mul(f, rho2_mul(h, k))
            and rho2_mul(f, ident) == f == rho2_mul(ident, f)
            and rho2_mul(f, rho2_inv(f)) == ident == rho2_mul(rho2_inv(f), f)
        )
        if not ok:
            failures.append(("semidirect laws", n))

    for n in range(500):
        g = rng.choice((1, 2, 3))
        r = rand_wedge3(rng, g)
        total += 1
        if wedge3_decode(wedge3_embed(r)) != r:
            failures.append(("roundtrip", n))

    for n in range(200):
        g = rng.choice((2, 3))
        R = rand_symplectic(rng, g)
        r = rand_wedge3(rng, g)
        total += 1
        if sp_action_on_hom(R, wedge3_embed(r)) != wedge3_embed(
                wedge3_sp_action(R, r)):
            failures.append(("equivariance", n))

    _report(capsys, 10, "group laws, embedding roundtrip, and equivariance hold",
            total, failures)
