import random
import re

import pytest

from jmrep import (
    GenusMismatch,
    HVector,
    IntMatrix,
    NotSymplectic,
    SymplecticMatrix,
    basis_label,
    basis_vector,
    make_J,
    pairing,
    symplectic_check,
    symplectic_inverse,
    transvection,
)
from helpers import block_constraints, rand_symplectic, rand_vector


def test_make_J_small_genus():
    assert make_J(1).rows == ((0, -1), (1, 0))
    assert make_J(2).rows == (
        (0, 0, -1, 0),
        (0, 0, 0, -1),
        (1, 0, 0, 0),
        (0, 1, 0, 0),
    )


def test_J_squares_to_minus_identity():
    J = make_J(1)
    assert (J * J).rows == ((-1, 0), (0, -1))


def test_symplectic_check():
    assert symplectic_check(IntMatrix.identity(2))
    assert symplectic_check(make_J(2))
    two_i = IntMatrix(tuple(tuple(2 * (i == j) for j in range(4)) for i in range(4)))
    assert not symplectic_check(two_i)


def test_symplectic_constructor_rejects_non_symplectic():
    with pytest.raises(NotSymplectic):
        SymplecticMatrix(((2, 0), (0, 2)))
    # the shear ((1, 1), (0, 1)) with its last entry perturbed
    with pytest.raises(
        NotSymplectic,
        match=re.escape("matrix fails M J M~ = J: entry (1, 2) of M J M~ is -2, of J is -1"),
    ):
        SymplecticMatrix(((1, 1), (0, 2)))


def test_symplectic_inverse_frozen_cases():
    assert symplectic_inverse(SymplecticMatrix.identity(2)) == SymplecticMatrix.identity(2)
    J = SymplecticMatrix(make_J(1).rows)
    assert symplectic_inverse(J).rows == ((0, 1), (-1, 0))
    shear = SymplecticMatrix(((1, 1), (0, 1)))
    assert symplectic_inverse(shear).rows == ((1, -1), (0, 1))


@pytest.mark.parametrize("seed", range(6))
def test_symplectic_inverse_is_two_sided(seed):
    rng = random.Random(seed)
    for g in (1, 2, 3):
        M = rand_symplectic(rng, g)
        inv = symplectic_inverse(M)
        assert M * inv == IntMatrix.identity(g)
        assert inv * M == IntMatrix.identity(g)


# block_constraints is the block-wise oracle for symplectic_check in
# test_kernels; these two tests check the oracle itself.


def test_block_constraints_frozen_cases():
    assert block_constraints(SymplecticMatrix.identity(3)).all_hold()
    J = SymplecticMatrix(make_J(2).rows)
    assert block_constraints(J) == (True, True, True)
    two_i = IntMatrix(tuple(tuple(2 * (i == j) for j in range(4)) for i in range(4)))
    assert not block_constraints(two_i).all_hold()


@pytest.mark.parametrize("seed", range(8))
def test_block_constraints_hold_for_random_symplectic(seed):
    rng = random.Random(100 + seed)
    g = rng.choice((2, 3))
    assert block_constraints(rand_symplectic(rng, g)).all_hold()


def test_pairing_on_basis():
    a1, b1, a2 = basis_vector(2, 1), basis_vector(2, 3), basis_vector(2, 2)
    assert pairing(a1, b1) == 1
    assert pairing(b1, a1) == -1
    assert pairing(a1, a2) == 0


def test_pairing_genus_mismatch():
    with pytest.raises(GenusMismatch):
        pairing(basis_vector(2, 1), basis_vector(3, 1))


@pytest.mark.parametrize("seed", range(8))
def test_pairing_is_symplectic_invariant(seed):
    rng = random.Random(200 + seed)
    g = rng.choice((2, 3))
    R = rand_symplectic(rng, g)
    u, v = rand_vector(rng, g), rand_vector(rng, g)
    assert pairing(R * u, R * v) == pairing(u, v)


def test_transvection_frozen_matrix():
    T = transvection(basis_vector(2, 3))
    assert T.rows == (
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (1, 0, 1, 0),
        (0, 0, 0, 1),
    )


@pytest.mark.parametrize("seed", range(10))
def test_transvection_formula(seed):
    rng = random.Random(300 + seed)
    g = rng.choice((1, 2, 3))
    v = rand_vector(rng, g, bound=2)
    if not any(v.coeffs):
        v = basis_vector(g, 1)
    T = transvection(v)
    assert symplectic_check(T)
    assert T * v == v
    u = rand_vector(rng, g)
    assert T * u == u + pairing(u, v) * v


def test_vector_arithmetic_and_labels():
    v = HVector((1, -2, 0, 3))
    w = HVector((0, 1, 1, 1))
    assert (v + w).coeffs == (1, -1, 1, 4)
    assert (v - w).coeffs == (1, -3, -1, 2)
    assert (-v).coeffs == (-1, 2, 0, -3)
    assert (3 * v).coeffs == (3, -6, 0, 9)
    assert v.coeffs[3] == 3
    assert basis_label(1, 2) == "a1"
    assert basis_label(3, 2) == "b1"
    assert basis_label(4, 2) == "b2"


def test_matrix_rejects_ragged_rows():
    with pytest.raises(ValueError):
        IntMatrix(((1, 0), (0,)))


def test_inputs_of_no_or_odd_length_name_the_2g_rule():
    for coeffs in ((), (1, 0, 0)):
        with pytest.raises(ValueError, match=r"^coordinate length must be 2g for some g >= 1$"):
            HVector(coeffs)
    for rows in ((), ((1,),)):
        with pytest.raises(ValueError, match=r"^dimension must be 2g for some g >= 1$"):
            IntMatrix(rows)


def test_constructors_reject_non_integers():
    with pytest.raises(ValueError):
        HVector([True, 0])
    with pytest.raises(ValueError):
        HVector([1.0, 0])
    with pytest.raises(ValueError):
        IntMatrix(((1, 0), (0, 1.0)))
