import random

import pytest

from jmrep import (
    EndomorphismSpec,
    FreeWord,
    IntMatrix,
    WordLengthExceeded,
    boundary_word,
    endo_apply,
    endo_compose,
    word_reduce,
)
from helpers import rand_word


def test_word_reduce_frozen_cases():
    assert word_reduce(FreeWord(2, [1, -1])).letters == ()
    assert word_reduce(FreeWord(2, [1, 2, -2, -1])).letters == ()
    assert word_reduce(FreeWord(2, [1, 2, -1])).letters == (1, 2, -1)


@pytest.mark.parametrize("seed", range(8))
def test_word_reduce_is_idempotent_and_length_minimal(seed):
    rng = random.Random(600 + seed)
    w = rand_word(rng, 2, 30)
    r = word_reduce(w)
    assert word_reduce(r) == r
    assert all(a != -b for a, b in zip(r.letters, r.letters[1:]))
    assert len(r) <= len(w)


def test_word_inverse_and_product():
    w = FreeWord(2, [1, 3, -2])
    assert w.inverse().letters == (2, -3, -1)
    assert word_reduce(w * w.inverse()).letters == ()
    assert (w * FreeWord(2, [4])).letters == (1, 3, -2, 4)


def test_word_abelianization():
    w = FreeWord(2, [1, 3, 1, -4, -1])
    assert w.abelianization().coeffs == (1, 0, 1, -1)


def test_word_rejects_out_of_range_letters():
    with pytest.raises(ValueError):
        FreeWord(2, [5])
    with pytest.raises(ValueError):
        FreeWord(2, [0])


def test_endomorphism_spec_names_the_image_count():
    for count in (0, 3, 5):
        with pytest.raises(ValueError, match=f"^need exactly 4 images, got {count}$"):
            EndomorphismSpec(2, [FreeWord(2, [1])] * count)


def test_endo_apply_frozen_cases():
    g = 2
    e = EndomorphismSpec.identity(g)
    w = FreeWord(g, [1, -1, 2])
    assert endo_apply(e, w) == word_reduce(w)
    twist = EndomorphismSpec.from_letter_lists(g, [[1, 3], [2], [3], [4]])
    assert endo_apply(twist, FreeWord(g, [1])).letters == (1, 3)


@pytest.mark.parametrize("seed", range(6))
def test_endo_apply_is_a_homomorphism(seed):
    rng = random.Random(700 + seed)
    g = 2
    twist = EndomorphismSpec.from_letter_lists(g, [[1, 3], [2], [3], [4]])
    w1, w2 = rand_word(rng, g, 10), rand_word(rng, g, 10)
    lhs = endo_apply(twist, w1 * w2)
    rhs = word_reduce(endo_apply(twist, w1) * endo_apply(twist, w2))
    assert lhs == rhs


def test_endo_compose_identity_laws():
    g = 2
    e = EndomorphismSpec.from_letter_lists(g, [[1, 3], [2], [3], [4]])
    ident = EndomorphismSpec.identity(g)
    assert endo_compose(ident, e) == e
    assert endo_compose(e, ident) == e


def test_endo_compose_applies_right_factor_first():
    g = 2
    # e1: alpha1 -> alpha1 beta1; e2: beta1 -> beta1 alpha1
    e1 = EndomorphismSpec.from_letter_lists(g, [[1, 3], [2], [3], [4]])
    e2 = EndomorphismSpec.from_letter_lists(g, [[1], [2], [3, 1], [4]])
    c = endo_compose(e1, e2)
    # image of beta1: first e2 sends it to beta1 alpha1, then e1 rewrites
    assert c.images[2].letters == (3, 1, 3)


def test_abelianization_matrix_is_column_convention():
    g = 2
    e = EndomorphismSpec.from_letter_lists(g, [[1, 3], [2], [3], [4]])
    M = e.abelianization()
    assert isinstance(M, IntMatrix)
    assert [row[0] for row in M.rows] == [1, 0, 1, 0]
    assert [row[2] for row in M.rows] == [0, 0, 1, 0]


def test_word_length_guard():
    g = 2
    # alpha1 -> alpha1 alpha1 doubles the a1-count each pass
    e = EndomorphismSpec.from_letter_lists(g, [[1, 1], [2], [3], [4]])
    w = FreeWord(g, [1])
    for _ in range(5):
        w = endo_apply(e, w)
    with pytest.raises(WordLengthExceeded):
        cur = FreeWord(g, [1])
        for _ in range(40):
            cur = endo_apply(e, cur, max_letters=10_000)


def test_boundary_word():
    assert boundary_word(1).letters == (1, 2, -1, -2)
    assert boundary_word(2).letters == (1, 3, -1, -3, 2, 4, -2, -4)
    assert not any(boundary_word(3).abelianization().coeffs)
