import itertools
import math
import random

import pytest

from jmrep import (
    GenusMismatch,
    HomHW2,
    NotInWedge3,
    SymplecticMatrix,
    Wedge2,
    Wedge3,
    basis_label,
    basis_vector,
    decode_wedge2,
    decode_wedge3,
    half_wedge2_of,
    kappa,
    kappa_hom,
    sp_action_on_hom,
    transvection,
    wedge2_sp_action,
    wedge3_apply,
    wedge3_decode,
    wedge3_embed,
    wedge3_of,
    wedge3_sp_action,
    zero_vector,
)
from helpers import (
    _det3,
    rand_integral_wedge3,
    rand_member,
    rand_symplectic,
    rand_vector,
    rand_wedge2,
    rand_wedge3,
)


def test_wedge2_of_basis():
    # the integral product u ^ v is 2 * half_wedge2_of(u, v)
    a1, b1 = basis_vector(2, 1), basis_vector(2, 3)
    assert 2 * half_wedge2_of(a1, b1) == Wedge2(2, {(1, 3): 2})
    assert (2 * half_wedge2_of(a1, a1)).is_zero()
    assert 2 * half_wedge2_of(a1 + b1, b1) == 2 * half_wedge2_of(a1, b1)


def test_wedge2_canonical_form_drops_zeros():
    w = Wedge2(2, {(1, 2): 0, (1, 3): 2})
    assert w.terms() == (((1, 3), 2),)
    assert Wedge2(2, {}) == Wedge2.zero(2)


def test_wedge2_and_wedge3_are_distinct_types():
    assert Wedge2.zero(2) != Wedge3.zero(2)
    with pytest.raises(TypeError):
        Wedge2.basis(2, 1, 2) + Wedge3.basis(2, 1, 2, 3)


def test_wedge2_rejects_bad_indices():
    with pytest.raises(ValueError):
        Wedge2(2, {(1, 5): 2})
    # out of order is not bad: x_j ^ x_i = -x_i ^ x_j
    assert Wedge2(2, {(3, 1): 2}) == Wedge2(2, {(1, 3): -2})
    assert Wedge2(2, {(2, 1): 2}) == -Wedge2.basis(2, 1, 2) == Wedge2.basis(2, 2, 1)


def _perm_sign(idx):
    """The sign of the permutation sorting idx, 0 on a repeat: the sign of the
    Vandermonde product of idx."""
    d = math.prod(b - a for a, b in itertools.combinations(idx, 2))
    return (d > 0) - (d < 0)


@pytest.mark.parametrize("cls", [Wedge2, Wedge3])
@pytest.mark.parametrize("g", range(1, 5))
def test_constructor_decoder_and_twice_share_one_sign_rule(cls, g):
    decode = {Wedge2: decode_wedge2, Wedge3: decode_wedge3}[cls]
    for idx in itertools.product(range(1, 2 * g + 1), repeat=cls.ARITY):
        key, sign = tuple(sorted(idx)), _perm_sign(idx)
        t = 2 * idx[0] - 3  # odd and nonzero
        w = cls(g, {idx: t})
        assert decode({"genus": g, "terms": [{"idx": list(idx), "twice": t}]}) == w
        assert w.terms() == (((key, sign * t),) if sign else ())
        # sorted, reading any order of the key gives the same signed coefficient
        assert cls(g, {key: t}).twice(*idx) == sign * t
        # and the terms of one element add up, a pair with its swap cancelling
        assert cls(g, [(idx, t), (key, -sign * t)]).is_zero()


def test_twice_checks_arity_and_indices():
    r = Wedge3.basis(2, 1, 2, 3)
    assert r.twice(2, 1, 3) == -2 and r.twice(3, 1, 2) == 2 and r.twice(1, 1, 2) == 0
    for bad in [(1, 2), (1, 2, 3, 4)]:
        with pytest.raises(ValueError, match="bad index tuple"):
            r.twice(*bad)
    for bad in [(0, 1, 2), (True, 2, 3), (1, 2, 5)]:
        with pytest.raises(ValueError, match="out of range for genus 2"):
            r.twice(*bad)


@pytest.mark.parametrize("make", [
    lambda: Wedge3(2, {(True, 2, 3): 2}),
    lambda: Wedge2(2, {(1, True): 2}),
    lambda: Wedge3.basis(2, True, 2, 3),
])
def test_wedge_rejects_bool_indices(make):
    # True == 1, so a bool index would pass the range check and encode as true
    with pytest.raises(ValueError, match="bad index tuple"):
        make()


def test_wedge_rejects_non_integer_coefficients():
    with pytest.raises(ValueError):
        Wedge3(2, {(1, 2, 3): 1.0})
    with pytest.raises(ValueError):
        Wedge2(2, {(1, 2): True})


def test_integer_multiples_scale_every_doubled_coefficient():
    w, r = Wedge2(2, {(1, 2): 2, (3, 4): -3}), Wedge3(3, {(1, 2, 3): 5, (2, 4, 6): -1})
    assert 3 * w == w * 3 == Wedge2(2, {(1, 2): 6, (3, 4): -9})
    assert -2 * w == Wedge2(2, {(1, 2): -4, (3, 4): 6})
    assert 3 * r == Wedge3(3, {(1, 2, 3): 15, (2, 4, 6): -3})
    assert -2 * r == r * -2 == Wedge3(3, {(1, 2, 3): -10, (2, 4, 6): 2})


def test_kappa_values():
    g = 2
    assert kappa(basis_vector(g, 1)) == Wedge2(g, {(1, 3): 1})
    assert kappa(basis_vector(g, 3)) == Wedge2(g, {(1, 3): -1})
    assert kappa(basis_vector(g, 1) + basis_vector(g, 3)).is_zero()


def test_wedge3_apply_frozen_case():
    # (a1 ^ a2 ^ b1) evaluated at a1 gives a1 ^ a2
    r = Wedge3.basis(2, 1, 2, 3)
    assert wedge3_apply(r, basis_vector(2, 1)) == Wedge2(2, {(1, 2): 2})


def test_wedge3_apply_zero_and_additive():
    rng = random.Random(7)
    g = 2
    y = rand_vector(rng, g)
    assert wedge3_apply(Wedge3.zero(g), y).is_zero()
    r1, r2 = rand_wedge3(rng, g), rand_wedge3(rng, g)
    assert wedge3_apply(r1 + r2, y) == wedge3_apply(r1, y) + wedge3_apply(r2, y)


def test_embed_decode_roundtrip_half_integral():
    r = Wedge3(2, {(1, 2, 4): 1})  # one half times a1^a2^b2
    assert wedge3_decode(wedge3_embed(r)) == r


@pytest.mark.parametrize("seed", range(12))
def test_embed_decode_roundtrip_random(seed):
    rng = random.Random(400 + seed)
    g = 2 + seed % 4
    r = rand_wedge3(rng, g)
    assert wedge3_decode(wedge3_embed(r)) == r


def test_decode_zero_hom():
    assert wedge3_decode(HomHW2.zero(2)) == Wedge3.zero(2)


def test_decode_rejects_lone_image():
    g = 2
    images = [Wedge2.zero(g) for _ in range(2 * g)]
    images[0] = Wedge2(g, {(1, 3): 2})
    with pytest.raises(NotInWedge3):
        wedge3_decode(HomHW2(images))


@pytest.mark.parametrize("n", range(1, 7))
def test_decode_names_the_perturbed_basis_vector(n):
    g = 3
    r = rand_member(random.Random(450 + n), g).r
    images = list(wedge3_embed(r).images)
    # the dual-basis read-off never takes a pair x_p^x_6 from any image, so
    # the read-off is still r and only the image of x_n differs, at x_p^x_6
    p = n % 5 + 1
    images[n - 1] = images[n - 1] + Wedge2.basis(g, p, 2 * g)
    with pytest.raises(NotInWedge3) as exc:
        wedge3_decode(HomHW2(images))
    assert str(exc.value) == (
        f"the value at {basis_label(n, g)} is not that of any element of (1/2)W3(H) "
        f"(first difference at {basis_label(p, g)}^b3)"
    )


def test_decode_is_linear_over_doubling():
    g = 2
    m = wedge3_embed(Wedge3(g, {(1, 2, 3): 1}))
    assert wedge3_decode(m + m) == Wedge3(g, {(1, 2, 3): 2})


def test_genus_one_decode_only_zero():
    assert wedge3_decode(HomHW2.zero(1)) == Wedge3.zero(1)
    bad = HomHW2([Wedge2(1, {(1, 2): 1}), Wedge2.zero(1)])
    with pytest.raises(NotInWedge3):
        wedge3_decode(bad)


def test_hom_images_must_be_wedge2s_of_one_genus_g_2g_in_number():
    for images in ([zero_vector(2)] * 4, [Wedge3.zero(2)] * 4, [1, 2]):
        with pytest.raises(TypeError) as exc:
            HomHW2(images)
        assert str(exc.value) == "images must be Wedge2 instances"
    # the genus is the count over 2, so a wrong count or a mixed genus shows as one of these
    for images, error, message in (
        ([Wedge2.zero(1)] * 3, ValueError, "need exactly 2 images, got 3"),
        ([Wedge2.zero(2)] * 2, GenusMismatch, "genus 1 vs image genus 2"),
        ([Wedge2.zero(2)] * 3 + [Wedge2.zero(1)], GenusMismatch, "genus 2 vs image genus 1"),
        ([], ValueError, "genus must be an integer >= 1, got 0"),
    ):
        with pytest.raises(error) as exc:
            HomHW2(images)
        assert str(exc.value) == message


def test_sp_action_on_wedge3_frozen_case():
    # transvection a1 -> a1 + b1 applied to a1^a2^b2
    T = transvection(basis_vector(2, 3))
    r = Wedge3.basis(2, 1, 2, 4)
    assert wedge3_sp_action(T, r) == Wedge3(2, {(1, 2, 4): 2, (2, 3, 4): -2})


def test_sp_action_identity_and_composition():
    rng = random.Random(11)
    g = 2
    r = rand_wedge3(rng, g)
    w = rand_wedge2(rng, g)
    I = SymplecticMatrix.identity(g)
    assert wedge3_sp_action(I, r) == r
    assert wedge2_sp_action(I, w) == w
    R1, R2 = rand_symplectic(rng, g), rand_symplectic(rng, g)
    assert wedge3_sp_action(R1 * R2, r) == wedge3_sp_action(R1, wedge3_sp_action(R2, r))
    assert wedge2_sp_action(R1 * R2, w) == wedge2_sp_action(R1, wedge2_sp_action(R2, w))


@pytest.mark.parametrize("seed", range(8))
def test_embed_is_equivariant(seed):
    rng = random.Random(500 + seed)
    g = rng.choice((2, 3))
    R = rand_symplectic(rng, g)
    r = rand_wedge3(rng, g)
    assert sp_action_on_hom(R, wedge3_embed(r)) == wedge3_embed(wedge3_sp_action(R, r))


def test_sp_action_on_hom_identity():
    rng = random.Random(13)
    g = 2
    m = wedge3_embed(rand_wedge3(rng, g)) + kappa_hom(g)
    assert sp_action_on_hom(SymplecticMatrix.identity(g), m) == m


def test_sp_action_on_hom_needs_symplectic_type():
    from jmrep import IntMatrix

    with pytest.raises(TypeError):
        sp_action_on_hom(IntMatrix.identity(2), kappa_hom(2))


def test_wedge3_of_matches_basis():
    g = 2
    a1, a2, b2 = basis_vector(g, 1), basis_vector(g, 2), basis_vector(g, 4)
    assert wedge3_of(a1, a2, b2) == Wedge3.basis(g, 1, 2, 4)
    assert wedge3_of(a1, a1, b2).is_zero()


@pytest.mark.parametrize("g", range(1, 6))
def test_wedge3_of_is_the_3x3_minors(g):
    # at g = 1 there are no triples and the product is zero
    rng = random.Random(60 + g)
    for _ in range(4):
        u, v, w = (rand_vector(rng, g) for _ in range(3))
        want = {(p + 1, q + 1, s + 1): 2 * _det3(u.coeffs, v.coeffs, w.coeffs, p, q, s)
                for p, q, s in itertools.combinations(range(2 * g), 3)}
        assert wedge3_of(u, v, w) == Wedge3(g, want)
        assert wedge3_of(u, v, u).is_zero()


def test_integrality_flag():
    rng = random.Random(17)
    assert rand_integral_wedge3(rng, 2).is_integral()
    assert not Wedge3(2, {(1, 2, 3): 1}).is_integral()
