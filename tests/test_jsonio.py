import random

import pytest

from jmrep import (
    GenusMismatch,
    NotSymplectic,
    Phi2Element,
    Rho2Element,
    Wedge3,
    canonical_dumps,
    decode_endo,
    decode_hvector,
    decode_phi2,
    decode_rho2,
    decode_symplectic,
    decode_wedge2,
    decode_wedge3,
    decode_word,
    encode_endo,
    encode_hvector,
    encode_matrix,
    encode_phi2,
    encode_rho2,
    encode_wedge2,
    encode_wedge3,
    encode_word,
    make_J,
)
from helpers import (
    catalog_specs,
    rand_member,
    rand_phi2,
    rand_symplectic,
    rand_vector,
    rand_wedge2,
    rand_wedge3,
    rand_word,
)


@pytest.mark.parametrize("seed", range(6))
def test_roundtrips_every_document_type(seed):
    rng = random.Random(2200 + seed)
    g = rng.choice((1, 2, 3))
    v = rand_vector(rng, g)
    assert decode_hvector(encode_hvector(v)) == v
    M = rand_symplectic(rng, g)
    assert decode_symplectic(encode_matrix(M)) == M
    w2 = rand_wedge2(rng, g)
    assert decode_wedge2(encode_wedge2(w2)) == w2
    w3 = rand_wedge3(rng, g)
    assert decode_wedge3(encode_wedge3(w3)) == w3
    word = rand_word(rng, g)
    assert decode_word(encode_word(word)) == word
    p = rand_phi2(rng, g)
    assert decode_phi2(encode_phi2(p)) == p
    f = rand_member(rng, g)
    assert decode_rho2(encode_rho2(f)) == f


@pytest.mark.parametrize("g", (2, 3))
def test_endo_roundtrip_over_catalog(g):
    for spec in catalog_specs(g):
        assert decode_endo(encode_endo(spec)) == spec


def test_decode_endo_accepts_bare_letter_arrays():
    doc = {"genus": 1, "images": [[1, 2], [-2]]}
    e = decode_endo(doc)
    assert [list(w.letters) for w in e.images] == [[1, 2], [-2]]
    mixed = {"genus": 1, "images": [{"genus": 1, "letters": [1, 2]}, [-2]]}
    assert decode_endo(mixed) == e


def test_canonical_dumps_is_byte_stable():
    w = Wedge3(2, {(1, 2, 4): 3, (1, 2, 3): -2})
    s = canonical_dumps(encode_wedge3(w))
    assert s == (
        '{"genus":2,"terms":['
        '{"idx":[1,2,3],"twice":-2},'
        '{"idx":[1,2,4],"twice":3}]}'
    )
    assert canonical_dumps(encode_wedge3(decode_wedge3(encode_wedge3(w)))) == s


def test_decoder_normalizes_unsorted_indices_with_sign():
    # a cyclic rotation is even, a single swap is odd
    doc = {"genus": 2, "terms": [{"idx": [4, 1, 2], "twice": 2}]}
    assert decode_wedge3(doc) == Wedge3(2, {(1, 2, 4): 2})
    doc = {"genus": 2, "terms": [{"idx": [2, 1, 4], "twice": 2}]}
    assert decode_wedge3(doc) == Wedge3(2, {(1, 2, 4): -2})
    doc = {"genus": 2, "terms": [{"idx": [4, 2, 1], "twice": 2}]}
    assert decode_wedge3(doc) == Wedge3(2, {(1, 2, 4): -2})


def test_decoder_accumulates_and_cancels_terms():
    doc = {
        "genus": 2,
        "terms": [
            {"idx": [1, 2, 3], "twice": 1},
            {"idx": [2, 1, 3], "twice": 1},
            {"idx": [1, 2, 4], "twice": 5},
        ],
    }
    assert decode_wedge3(doc) == Wedge3(2, {(1, 2, 4): 5})


def test_decoder_drops_repeated_index_terms():
    doc = {"genus": 2, "terms": [{"idx": [1, 1, 3], "twice": 7}]}
    assert decode_wedge3(doc).is_zero()


@pytest.mark.parametrize(
    "doc",
    [
        42,
        {},
        {"genus": 0, "coeffs": []},
        {"genus": True, "coeffs": [1, 1]},
        {"genus": 1, "coeffs": [1, 2, 3]},
        {"genus": 1, "coeffs": [1, "2"]},
        {"genus": 1, "coeffs": [1, True]},
        {"genus": 1, "coeffs": "12"},
    ],
)
def test_decode_hvector_rejects_malformed(doc):
    with pytest.raises(ValueError):
        decode_hvector(doc)


MALFORMED_MATRICES = [  # (document, the shape message it must raise)
    ({"genus": 1, "rows": [[1, 0], [0]]}, "matrix must be square"),
    ({"genus": 1, "rows": [[1, 0]]}, "'rows' must be an array of 2*genus rows"),
    ({"genus": 1, "rows": "ID"}, "'rows' must be an array of 2*genus rows"),
    # rows that are not arrays, and entries that are not integers
    ({"genus": 1, "rows": [[1, 0], 7]}, "matrix row must be an array"),
    ({"genus": 1, "rows": [[1, 0], "01"]}, "matrix row must be an array"),
    ({"genus": 1, "rows": [[1, 0], {"0": 0, "1": 1}]}, "matrix row must be an array"),
    ({"genus": 1, "rows": [[1, 0], [0, True]]}, "expected an integer, got True"),
    ({"genus": 1, "rows": [[1, 0], [0, 1.0]]}, "expected an integer, got 1.0"),
]


@pytest.mark.parametrize("doc, message", MALFORMED_MATRICES,
                         ids=[f"doc{i}" for i in range(len(MALFORMED_MATRICES))])
def test_decode_matrix_rejects_malformed(doc, message):
    # NotSymplectic is a ValueError too, so the message shows the shape check fired
    with pytest.raises(ValueError) as exc:
        decode_symplectic(doc)
    assert str(exc.value) == message


def test_decode_symplectic_rejects_pairing_violation():
    with pytest.raises(NotSymplectic):
        decode_symplectic({"genus": 1, "rows": [[2, 0], [0, 2]]})


@pytest.mark.parametrize(
    "doc",
    [
        {"genus": 2, "terms": [{"idx": [1, 2], "twice": 1}]},
        {"genus": 2, "terms": [{"idx": [0, 2, 3], "twice": 1}]},
        {"genus": 2, "terms": [{"idx": [1, 2, 5], "twice": 1.0}]},
        {"genus": 2, "terms": [{"idx": [1, 2, 3]}]},
        {"genus": 2, "terms": [[1, 2, 3, 1]]},
        {"genus": 2, "terms": [{"idx": [1, 2, 9], "twice": 1}]},
        {"genus": 2},
    ],
)
def test_decode_wedge3_rejects_malformed(doc):
    with pytest.raises(ValueError):
        decode_wedge3(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {"genus": 2, "letters": [0]},
        {"genus": 2, "letters": [5]},
        {"genus": 2, "letters": [1, -9]},
        {"genus": 2, "letters": 3},
        {"genus": 2, "letters": "12"},
        {"genus": 2, "letters": [1, True]},
        {"genus": 2, "letters": [1.0]},
    ],
)
def test_decode_word_rejects_malformed(doc):
    with pytest.raises(ValueError):
        decode_word(doc)


def test_decode_phi2_rejects_genus_mismatch():
    doc = {
        "eta": {"genus": 2, "terms": []},
        "y": {"genus": 1, "coeffs": [0, 0]},
    }
    with pytest.raises(GenusMismatch):
        decode_phi2(doc)
    with pytest.raises(ValueError):
        decode_phi2({"eta": {"genus": 1, "terms": []}})


def test_decode_rho2_rejects_genus_mismatch():
    doc = {
        "r": {"genus": 1, "terms": []},
        "R": encode_matrix(make_J(2)),
    }
    with pytest.raises(GenusMismatch):
        decode_rho2(doc)


def test_decode_endo_rejects_wrong_image_count_and_genus():
    with pytest.raises(ValueError):
        decode_endo({"genus": 2, "images": [[1], [2], [3]]})
    with pytest.raises(GenusMismatch):
        decode_endo({"genus": 1, "images": [{"genus": 2, "letters": [1]}, [2]]})


@pytest.mark.parametrize("seed", range(4))
def test_phi2_and_rho2_documents_nest_canonically(seed):
    rng = random.Random(2300 + seed)
    g = rng.choice((2, 3))
    p = Phi2Element(rand_wedge2(rng, g), rand_vector(rng, g))
    doc = encode_phi2(p)
    assert set(doc) == {"eta", "y"}
    assert doc["eta"]["genus"] == doc["y"]["genus"] == g
    f = Rho2Element(rand_wedge3(rng, g), rand_symplectic(rng, g))
    doc = encode_rho2(f)
    assert set(doc) == {"r", "R"}
    assert canonical_dumps(doc) == canonical_dumps(encode_rho2(decode_rho2(doc)))
