"""The tau_2 pipeline's kernels against their definitions.

endo_apply pushes each letter's image as one reduced block, wedge3_embed
builds every image in one pass over r, phi2_eval_word keeps one accumulator
per generator, and tau2_from_endo precomposes once; the oracles in helpers
concatenate and then reduce, evaluate r at each basis vector, scan every
index for each letter, and take the two-precompose formula.  Words cover the
empty word, short random words and long synthesized words; endomorphisms
cover images that are not freely reduced and inverse letters.
"""

import random

import pytest

from jmrep import (
    EndomorphismSpec,
    FreeWord,
    NotInWedge3,
    NotSymplectic,
    Phi2Element,
    Rho2Element,
    Wedge2,
    WordLengthExceeded,
    endo_apply,
    endo_compose,
    kappa_hom,
    phi2_eval_word,
    phi2_word_synthesis,
    sp_action_on_hom,
    tau2_from_endo,
    tau2_tilde_from_endo,
    wedge3_decode,
    wedge3_embed,
)
from helpers import (
    rand_vector,
    rand_wedge3,
    rand_word,
    ref_endo_apply,
    ref_phi2_eval_word,
    ref_wedge3_embed,
)

GENERA = range(1, 7)


def rand_endo(rng, g, max_len=6):
    """2g random images, most of them not freely reduced at some letter."""
    return EndomorphismSpec(g, [rand_word(rng, g, max_len) for _ in range(2 * g)])


def synthesized_word(rng, g, bound=3):
    """A long word: phi2_word_synthesis of a point with large eta coefficients."""
    y = rand_vector(rng, g, bound)
    l = y.coeffs
    eta = {(i + 1, j + 1): l[i] * l[j] + 2 * rng.randint(-bound, bound)
           for i in range(2 * g) for j in range(i + 1, 2 * g)}
    return phi2_word_synthesis(Phi2Element(Wedge2(g, eta), y))


def words(rng, g):
    return ([FreeWord(g)] + [rand_word(rng, g, 12) for _ in range(6)]
            + [synthesized_word(rng, g) for _ in range(2)])


def twist(g, i, along_a):
    """The Dehn twist along a_i (b_i -> b_i a_i) or b_i (a_i -> a_i b_i^-1)."""
    images = [[k] for k in range(1, 2 * g + 1)]
    if along_a:
        images[i + g - 1] = [i + g, i]
    else:
        images[i - 1] = [i, -(i + g)]
    return EndomorphismSpec.from_letter_lists(g, images)


def ref_tau2_from_endo(endo):
    """decode(W o R^-1 + kappa - R kappa), with R kappa = (Lambda^2 R o kappa) o R^-1."""
    W, R = tau2_tilde_from_endo(endo)
    kh = kappa_hom(endo.genus)
    return Rho2Element(wedge3_decode(W.precompose(R.inverse()) + kh - sp_action_on_hom(R, kh)), R)


def outcome(fn, *args):
    """The value, or the rejection's type and message: jmrep rho2 prints the message."""
    try:
        return fn(*args)
    except (NotInWedge3, NotSymplectic) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("g", GENERA)
def test_endo_apply_matches_reduce_after_concatenation(g):
    rng = random.Random(9100 + g)
    for _ in range(4):
        e = rand_endo(rng, g)
        for w in words(rng, g):
            assert endo_apply(e, w) == ref_endo_apply(e, w)
            assert endo_apply(e, w.inverse()) == ref_endo_apply(e, w.inverse())


def test_unreduced_images_and_inverse_letters():
    e = EndomorphismSpec.from_letter_lists(2, [[1, 2, -2], [-3, 3, 2, 1, -1], [], [4, -1, 1]])
    for letters in ([1, -1], [-1, 2, 3], [1, 1, -2, -4], [-3, 4, -4, 2], [2, -1, -2, 1]):
        w = FreeWord(2, letters)
        assert endo_apply(e, w) == ref_endo_apply(e, w)
    assert endo_apply(e, FreeWord(2, [-1, -2])).letters == (-1, -2)
    assert endo_apply(e, FreeWord(2, [1, 2, -1])).letters == (1, 2, -1)


@pytest.mark.parametrize("g", GENERA)
def test_endo_compose_matches_the_oracle_image_by_image(g):
    rng = random.Random(9200 + g)
    for _ in range(4):
        e1, e2 = rand_endo(rng, g), rand_endo(rng, g, 12)
        composite = endo_compose(e1, e2)
        assert composite.images == tuple(ref_endo_apply(e1, w) for w in e2.images)


def first_raise(fn, e, w, limit):
    """The least t such that substituting into the prefix w[:t] raises, or None.

    A prefix raises iff some letter's partial stack exceeds the limit, so
    raising is monotone in t and a bisection finds the step."""
    def raises(t):
        try:
            fn(e, FreeWord(w.genus, w.letters[:t]), limit)
        except WordLengthExceeded:
            return True
        return False

    lo, hi = 0, len(w) + 1  # raises(t) is False below lo and True from hi on
    while lo < hi:
        mid = (lo + hi) // 2
        if raises(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo if lo <= len(w) else None


def compose_into(e, w, limit):
    """endo_compose of e after the spec with every image w."""
    return endo_compose(e, EndomorphismSpec(w.genus, [w] * (2 * w.genus)), limit)


@pytest.mark.parametrize("g", GENERA)
def test_max_letters_raises_at_the_oracle_step(g):
    rng = random.Random(9300 + g)
    e = rand_endo(rng, g, 8)
    raised = 0
    for w in words(rng, g):
        n = len(endo_apply(e, w))
        for limit in (0, n // 2, n, 2 * n):
            step = first_raise(ref_endo_apply, e, w, limit)
            assert first_raise(endo_apply, e, w, limit) == step
            # endo_compose trips at the same letter of each image
            assert first_raise(compose_into, e, w, limit) == step
            if step is not None:
                raised += 1
                with pytest.raises(WordLengthExceeded):
                    endo_apply(e, w, limit)
    assert raised


@pytest.mark.parametrize("g", GENERA)
def test_phi2_eval_word_matches_the_letter_scan(g):
    rng = random.Random(9400 + g)
    for w in words(rng, g):
        assert phi2_eval_word(w) == ref_phi2_eval_word(w)
        assert phi2_eval_word(w.inverse()) == ref_phi2_eval_word(w.inverse())


@pytest.mark.parametrize("g", GENERA)
def test_wedge3_embed_matches_the_basis_loop(g):
    rng = random.Random(9500 + g)
    for bound in (0, 1, 4):
        r = rand_wedge3(rng, g, bound)
        assert wedge3_embed(r) == ref_wedge3_embed(r)
        assert wedge3_decode(wedge3_embed(r)) == r


@pytest.mark.parametrize("g", range(1, 5))
def test_tau2_from_endo_matches_the_two_precompose_formula(g):
    rng = random.Random(9600 + g)
    gens = [twist(g, i, a) for i in range(1, g + 1) for a in (True, False)]
    kinds = set()
    for _ in range(6):
        e = rng.choice(gens)
        for _ in range(rng.randint(1, 4)):
            e = endo_compose(rng.choice(gens), e)
        # a member, then the same R with a commutator spliced into one image
        images = list(e.images)
        n = rng.randrange(2 * g)
        i, j = rng.sample(range(1, 2 * g + 1), 2) if g > 1 else (1, 2)
        images[n] = images[n] * FreeWord(g, [i, j, -i, -j])
        for endo in (e, EndomorphismSpec(g, images), rand_endo(rng, g)):
            got = outcome(tau2_from_endo, endo)
            assert got == outcome(ref_tau2_from_endo, endo)
            kinds.add(got[0] if isinstance(got, tuple) else Rho2Element)
    assert kinds == {Rho2Element, NotSymplectic, NotInWedge3}
