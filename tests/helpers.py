"""Seeded random generators shared across the test modules.

Every function takes an explicit random.Random so failures reproduce from the
seed in the calling test.
"""

import itertools
from typing import NamedTuple

from jmrep import (
    EndomorphismSpec,
    FreeWord,
    HomHW2,
    HVector,
    NotInWedge3,
    NotSymplectic,
    Phi2Element,
    Rho2Element,
    SymplecticMatrix,
    Wedge2,
    Wedge3,
    WordLengthExceeded,
    act_on_phi2,
    basis_vector,
    boundary_word,
    canonical_lift,
    catalog,
    endo_compose,
    handlebody_membership,
    handlebody_sp_check,
    kappa,
    pairing,
    phi2_eval_word,
    rho2_inv,
    tau2_from_endo,
    transvection,
    wedge3_of,
    word_reduce,
)

WORD_GUARD = 10_000


def rand_vector(rng, g, bound=3):
    return HVector(tuple(rng.randint(-bound, bound) for _ in range(2 * g)))


def rand_nonzero_vector(rng, g, bound=2):
    while True:
        v = rand_vector(rng, g, bound)
        if any(v.coeffs):
            return v


def rand_wedge2(rng, g, bound=4):
    pairs = list(itertools.combinations(range(1, 2 * g + 1), 2))
    return Wedge2(g, {p: rng.randint(-bound, bound) for p in pairs})


def rand_wedge3(rng, g, bound=4):
    triples = list(itertools.combinations(range(1, 2 * g + 1), 3))
    return Wedge3(g, {t: rng.randint(-bound, bound) for t in triples})


def rand_integral_wedge3(rng, g, bound=3):
    triples = list(itertools.combinations(range(1, 2 * g + 1), 3))
    return Wedge3(g, {t: 2 * rng.randint(-bound, bound) for t in triples})


def rand_transvection(rng, g, bound=1):
    return transvection(rand_nonzero_vector(rng, g, bound))


def rand_symplectic(rng, g, length=8):
    M = SymplecticMatrix.identity(g)
    for _ in range(rng.randint(1, length)):
        M = M * rand_transvection(rng, g)
    return M


def rand_word(rng, g, max_len=12):
    letters = [s for s in range(-2 * g, 2 * g + 1) if s != 0]
    return FreeWord(g, [rng.choice(letters) for _ in range(rng.randint(0, max_len))])


def catalog_specs(g):
    out = []
    for entry in catalog(g):
        out.append(entry.spec)
        out.append(entry.inverse_spec)
    return out


def rand_catalog_product(rng, g, specs=None, max_factors=8):
    """Random product of catalog automorphisms, redrawn if the word-length
    guard trips."""
    if specs is None:
        specs = catalog_specs(g)
    while True:
        try:
            e = EndomorphismSpec.identity(g)
            for _ in range(rng.randint(1, max_factors)):
                e = endo_compose(rng.choice(specs), e, max_letters=WORD_GUARD)
            return e
        except WordLengthExceeded:
            continue


def rand_member(rng, g, R=None, bound=3):
    """Random element satisfying the parity congruences: canonical lift
    shifted by an integral wedge."""
    if R is None:
        R = rand_symplectic(rng, g)
    lift = canonical_lift(R)
    return Rho2Element(lift.r + rand_integral_wedge3(rng, g, bound), R)


def rand_pi_point(rng, g, max_len=12):
    return phi2_eval_word(rand_word(rng, g, max_len))


def rand_phi2(rng, g, bound=3):
    return Phi2Element(rand_wedge2(rng, g, bound), rand_vector(rng, g, bound))


# ---------------------------------------------------------------- reference oracles
# Direct transcriptions of the definitions, kept as the reference that the
# structure-aware kernels in jmrep.wedge, jmrep.linalg, jmrep.membership,
# jmrep.words and jmrep.phi2 are compared against.


def ref_wedge3_apply(r, y):
    """The homomorphism induced by r at y, term by term from
    (x_i^x_j^x_k)(y) = <y,x_k> x_i^x_j + <y,x_i> x_j^x_k + <y,x_j> x_k^x_i."""
    g = r.genus
    out = {}
    for (i, j, k), t in r.terms():
        for key, n, sign in (((i, j), k, 1), ((j, k), i, 1), ((i, k), j, -1)):
            out[key] = out.get(key, 0) + sign * t * pairing(y, basis_vector(g, n))
    return Wedge2(g, out)


def ref_wedge3_embed(r):
    """The embedding evaluated at each basis vector in turn."""
    g = r.genus
    return HomHW2(tuple(ref_wedge3_apply(r, basis_vector(g, n)) for n in range(1, 2 * g + 1)))


def ref_phi2_eval_word(w):
    """The ordered product of (0, x_k)^(+-1), one letter at a time: each letter
    adds (1/2) y ^ (sign x_k) to eta, scanning every index of y."""
    g = w.genus
    n = 2 * g
    y = [0] * (n + 1)  # 1-based
    eta = {}
    for s in w.letters:
        k, sign = abs(s), (1 if s > 0 else -1)
        for p in range(1, n + 1):
            if p < k:
                eta[(p, k)] = eta.get((p, k), 0) + sign * y[p]
            elif p > k:
                eta[(k, p)] = eta.get((k, p), 0) - sign * y[p]
        y[k] += sign
    return Phi2Element(Wedge2(g, eta), HVector(y[1:]))


def ref_endo_apply(e, w, max_letters=None):
    """Each letter's raw image (inverted for an inverse letter) pushed one letter
    at a time onto a stack that cancels inverse pairs as they meet; with
    max_letters, raises WordLengthExceeded at the first letter after which the
    stack is longer.  The stack is checked against word_reduce of the plain
    concatenation."""
    raw, stack = [], []
    for s in w.letters:
        img = e.images[abs(s) - 1]
        img = (img if s > 0 else img.inverse()).letters
        raw += img
        for t in img:
            if stack and stack[-1] == -t:
                stack.pop()
            else:
                stack.append(t)
        if max_letters is not None and len(stack) > max_letters:
            raise WordLengthExceeded(f"substitution exceeded {max_letters} letters")
    out = FreeWord(w.genus, stack)
    assert out == word_reduce(FreeWord(w.genus, raw))
    return out


def ref_validate_failures(entry):
    """The failures of validate_entry with the composite checked in both orders,
    each by ref_endo_apply, and M J M~ = J by products with J."""
    g, spec, inverse = entry.genus, entry.spec, entry.inverse_spec
    if inverse.genus != g:
        return ("inverse genus differs",)
    failures = []
    generators = [(k,) for k in range(1, 2 * g + 1)]
    for outer, inner, name in ((spec, inverse, "spec o inverse_spec"),
                               (inverse, spec, "inverse_spec o spec")):
        if [ref_endo_apply(outer, w).letters for w in inner.images] != generators:
            failures.append(f"{name} is not the identity")
    R = spec.abelianization()
    symplectic = ref_symplectic_form(R) == ref_J(g)
    if not symplectic:
        failures.append("abelianization is not symplectic")
    if ref_endo_apply(spec, boundary_word(g)) != boundary_word(g):
        failures.append("boundary word is not fixed")
    if entry.claimed_handlebody and symplectic:
        if not handlebody_sp_check(R):
            failures.append("claimed handlebody but upper-right block is nonzero")
        else:
            try:
                if not handlebody_membership(tau2_from_endo(spec)):
                    failures.append("claimed handlebody but membership fails")
            except (NotSymplectic, NotInWedge3) as exc:
                failures.append(f"claimed handlebody but degree-two value fails: {exc}")
    return tuple(failures)


def _det3(a, b, c, p, q, r):
    # minor of the columns a, b, c at rows p, q, r (0-based)
    return (
        a[p] * (b[q] * c[r] - b[r] * c[q])
        - b[p] * (a[q] * c[r] - a[r] * c[q])
        + c[p] * (a[q] * b[r] - a[r] * b[q])
    )


def ref_wedge2_sp_action(R, w):
    """R(x_i ^ x_j) = Rx_i ^ Rx_j by 2x2 minors, term by term."""
    n = 2 * w.genus
    cols = list(zip(*R.rows))
    out = {}
    for (i, j), t in w.terms():
        ci, cj = cols[i - 1], cols[j - 1]
        for p, q in itertools.combinations(range(n), 2):
            c = ci[p] * cj[q] - ci[q] * cj[p]
            if c:
                out[(p + 1, q + 1)] = out.get((p + 1, q + 1), 0) + t * c
    return Wedge2(w.genus, out)


def ref_act_on_phi2(f, p):
    """(r, R) * (eta, y) = (R eta - kappa(Ry) + R kappa(y) + r(Ry), Ry), every
    term evaluated, with the Lambda^2 action by minors."""
    R = f.R
    Ry = R * p.y
    eta = (ref_wedge2_sp_action(R, p.eta) - kappa(Ry)
           + ref_wedge2_sp_action(R, kappa(p.y)) + ref_wedge3_apply(f.r, Ry))
    return Phi2Element(eta, Ry)


def ref_phi2_b_membership(p):
    """phi_2(b) membership condition by condition: no a-part in y, no a^a term,
    integral a^b coefficients, and b^b parities matching l_i * l_j."""
    g = p.genus
    if any(p.y.coeffs[:g]):
        return False
    for (i, j), t in p.eta.terms():
        if j <= g:
            return False  # a^a term
        if i <= g and t % 2:
            return False  # a^b coefficient must be integral
    l = p.y.coeffs
    for i in range(g + 1, 2 * g + 1):
        for j in range(i + 1, 2 * g + 1):
            if (p.eta.twice(i, j) - l[i - 1] * l[j - 1]) % 2:
                return False
    return True


def ref_preserves_phi2_b(f):
    """Both f and f^-1 map each generator (0, b_i), (a_i^b_j, 0), (b_i^b_j, 0)
    of phi_2(b) into phi_2(b)."""
    g = f.genus
    zero2, zerov = Wedge2.zero(g), HVector((0,) * (2 * g))
    gens = [Phi2Element(zero2, basis_vector(g, g + i)) for i in range(1, g + 1)]
    gens += [Phi2Element(Wedge2(g, {(i, g + j): 2}), zerov)
             for i in range(1, g + 1) for j in range(1, g + 1)]
    gens += [Phi2Element(Wedge2(g, {(g + i, g + j): 2}), zerov)
             for i, j in itertools.combinations(range(1, g + 1), 2)]
    return all(ref_phi2_b_membership(act_on_phi2(h, p)) for h in (f, rho2_inv(f)) for p in gens)


def ref_matmul(A, B):
    """Rows of A B for square row tuples, by the triple loop over i, j, k."""
    n = len(A)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i][j] += A[i][k] * B[k][j]
    return tuple(tuple(row) for row in out)


def ref_matvec(A, v):
    """Coordinates of A v, by the double loop over i, k."""
    out = [0] * len(A)
    for i in range(len(A)):
        for k in range(len(v)):
            out[i] += A[i][k] * v[k]
    return tuple(out)


def ref_wedge3_sp_action(R, r):
    """R(x_i ^ x_j ^ x_k) = Rx_i ^ Rx_j ^ Rx_k by 3x3 minors, term by term."""
    n = 2 * r.genus
    cols = list(zip(*R.rows))
    out = {}
    for (i, j, k), t in r.terms():
        ci, cj, ck = cols[i - 1], cols[j - 1], cols[k - 1]
        for p, q, s in itertools.combinations(range(n), 3):
            d = _det3(ci, cj, ck, p, q, s)
            if d:
                key = (p + 1, q + 1, s + 1)
                out[key] = out.get(key, 0) + t * d
    return Wedge3(r.genus, out)


def ref_morita_shift(g):
    """-(1/2) u ^ (sum_i a_i ^ b_i), u = sum_k x_k, as a sum of g wedge3_of
    products that is then halved."""
    u = HVector((1,) * (2 * g))
    total = Wedge3.zero(g)
    for i in range(1, g + 1):
        total = total + wedge3_of(u, basis_vector(g, i), basis_vector(g, i + g))
    # total is integral with doubled values 2*c; the shift has doubled values -c
    return Wedge3(g, {t: -(c // 2) for t, c in total.terms()})


def ref_J(g):
    """Rows of J = (0 -I; I 0) in g x g blocks, entry by entry."""
    n = 2 * g
    return tuple(tuple(-1 if j == i + g else 1 if i == j + g else 0 for j in range(n))
                 for i in range(n))


def ref_symplectic_form(M):
    """Rows of M J M~, by two triple-loop products on plain rows."""
    return ref_matmul(ref_matmul(M.rows, ref_J(M.genus)), tuple(zip(*M.rows)))


def ref_symplectic_inverse(M):
    """Rows of -J M~ J, the inverse of a symplectic M since J^-1 = -J."""
    J = ref_J(M.genus)
    JMtJ = ref_matmul(ref_matmul(J, tuple(zip(*M.rows))), J)
    return tuple(tuple(-x for x in row) for row in JMtJ)


class BlockConstraints(NamedTuple):
    """The three g x g block identities equivalent to M J M~ = J.

    Writing M = (S T; P Q):  (i) Q S~ - P T~ = I, (ii) S T~ symmetric,
    (iii) P Q~ symmetric.
    """

    qs_minus_pt_identity: bool
    st_symmetric: bool
    pq_symmetric: bool

    def all_hold(self) -> bool:
        return self.qs_minus_pt_identity and self.st_symmetric and self.pq_symmetric


def _blk_mul_t(A, B):
    # A @ B~ for g x g blocks given as tuples of rows
    return tuple(tuple(sum(a * b for a, b in zip(ra, rb)) for rb in B) for ra in A)


def _blk_symmetric(A) -> bool:
    n = len(A)
    return all(A[i][j] == A[j][i] for i in range(n) for j in range(n))


def block_constraints(M):
    """Evaluate the block identities (i)-(iii) for a square matrix of size 2g."""
    g = M.genus
    S = tuple(row[:g] for row in M.rows[:g])
    T = tuple(row[g:] for row in M.rows[:g])
    P = tuple(row[:g] for row in M.rows[g:])
    Q = tuple(row[g:] for row in M.rows[g:])
    QSt = _blk_mul_t(Q, S)
    PTt = _blk_mul_t(P, T)
    ident = all(
        QSt[i][j] - PTt[i][j] == (1 if i == j else 0) for i in range(g) for j in range(g)
    )
    return BlockConstraints(
        qs_minus_pt_identity=ident,
        st_symmetric=_blk_symmetric(_blk_mul_t(S, T)),
        pq_symmetric=_blk_symmetric(_blk_mul_t(P, Q)),
    )


def triple_dot(w, y, z) -> int:
    """Coordinatewise triple product sum_n w_n y_n z_n of three sequences."""
    assert len(w) == len(y) == len(z)
    return sum(a * b * c for a, b, c in zip(w, y, z))


def ref_compute_E(R):
    """E_ijk as the membership docstring defines it, with RJ by a product with J."""
    r, s = R.rows, ref_matmul(R.rows, ref_J(R.genus))
    return {
        (i + 1, j + 1, k + 1): triple_dot(s[i], r[j], r[k]) - triple_dot(r[i], s[j], r[k])
        + triple_dot(r[i], r[j], s[k])
        for i, j, k in itertools.combinations(range(2 * R.genus), 3)
    }
