import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import SIGMA, random_complex, random_hermitian, rng_from
from subkraus.basis import OperatorBasis, build_hermitian_basis, expand, reconstruct
from subkraus.linalg import tensor_product

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def test_qubit_basis_is_scaled_pauli():
    bas = build_hermitian_basis(2)
    for i in range(4):
        np.testing.assert_allclose(bas.elements[i], SIGMA[i] / np.sqrt(2), atol=1e-15)


def test_gram_identity_d3_brute_force():
    bas = build_hermitian_basis(3)
    gram = np.zeros((9, 9), dtype=complex)
    for i in range(9):
        for j in range(9):
            gram[i, j] = np.trace(bas.elements[i] @ bas.elements[j])
    assert np.abs(gram - np.eye(9)).max() < 1e-13


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_first_element_is_normalized_identity(d):
    bas = build_hermitian_basis(d)
    np.testing.assert_allclose(bas.elements[0], np.eye(d) / np.sqrt(d), atol=1e-15)
    assert abs(np.trace(bas.elements[0]) - np.sqrt(d)) < 1e-13


def test_degenerate_dimension_one():
    bas = build_hermitian_basis(1)
    assert bas.dim == 1
    np.testing.assert_array_equal(bas.elements[0], np.ones((1, 1)))


def test_element_count_and_hermiticity():
    for d in (2, 3, 4):
        bas = build_hermitian_basis(d)
        assert len(bas.elements) == d * d
        for e in bas.elements:
            assert np.abs(e - e.conj().T).max() < 1e-15


def test_expand_sigma_x():
    bas = build_hermitian_basis(2)
    np.testing.assert_allclose(expand(SIGMA[1], bas), [0, np.sqrt(2), 0, 0], atol=1e-14)


def test_expand_identity():
    bas = build_hermitian_basis(2)
    np.testing.assert_allclose(expand(np.eye(2), bas), [np.sqrt(2), 0, 0, 0], atol=1e-14)


def test_expand_dimension_mismatch():
    with pytest.raises(ValueError):
        expand(np.eye(3), build_hermitian_basis(2))


@given(seeds)
def test_roundtrip_random_3x3(seed):
    bas = build_hermitian_basis(3)
    m = random_complex(rng_from(seed), 3)
    np.testing.assert_allclose(reconstruct(expand(m, bas), bas), m, atol=1e-12)


@given(seeds)
def test_parseval(seed):
    bas = build_hermitian_basis(3)
    m = random_complex(rng_from(seed), 3)
    coeffs = expand(m, bas)
    hs_norm = float(np.trace(m.conj().T @ m).real)
    assert abs(float((np.abs(coeffs) ** 2).sum()) - hs_norm) < 1e-12 * max(hs_norm, 1.0)


@given(seeds)
def test_hermitian_inputs_expand_real(seed):
    bas = build_hermitian_basis(4)
    h = random_hermitian(rng_from(seed), 4)
    assert np.abs(expand(h, bas).imag).max() < 1e-13


@settings(max_examples=10)
@given(seeds)
def test_product_basis_orthonormal(seed):
    del seed  # deterministic content; hypothesis only drives repetition
    b1 = build_hermitian_basis(2)
    b2 = build_hermitian_basis(3)
    products = [tensor_product(g, h) for g in b1.elements for h in b2.elements]
    n = len(products)
    gram = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            gram[i, j] = np.trace(products[i] @ products[j])
    assert np.abs(gram - np.eye(n)).max() < 1e-12


def test_operator_basis_validation():
    good = build_hermitian_basis(2)
    with pytest.raises(ValueError, match="orthonormal"):
        OperatorBasis(2, tuple(2.0 * e for e in good.elements))
    with pytest.raises(ValueError, match="Hermitian"):
        OperatorBasis(2, (good.elements[0], np.array([[0, 1], [0, 0]]), *good.elements[2:]))
    with pytest.raises(ValueError, match="identity"):
        OperatorBasis(2, (good.elements[1], good.elements[0], *good.elements[2:]))
    with pytest.raises(ValueError, match="Hermitian"):
        OperatorBasis(2, (good.elements[0], np.full((2, 2), np.nan), *good.elements[2:]))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_basis_is_built_once_per_dimension(d):
    assert build_hermitian_basis(d) is build_hermitian_basis(d)


def test_basis_storage_is_one_read_only_stack():
    bas = build_hermitian_basis(3)
    assert bas.stacked() is bas.stacked()
    assert bas.stacked().shape == (9, 3, 3)
    for i, e in enumerate(bas.elements):
        np.testing.assert_array_equal(e, bas.stacked()[i])
    with pytest.raises(ValueError):
        bas.elements[1][0, 0] = 5.0
    with pytest.raises(ValueError):
        bas.stacked()[0, 0, 0] = 5.0


def test_basis_equality_and_hashing():
    built = build_hermitian_basis(2)
    rebuilt = OperatorBasis(2, tuple(built.elements))
    assert rebuilt is not built and rebuilt == built
    v = np.array([[0, 1], [1, 0]], dtype=complex)
    rotated = OperatorBasis(2, tuple(v @ g @ v for g in built.elements))
    assert rotated != built
    assert build_hermitian_basis(3) != built
    assert built != "basis"
    with pytest.raises(TypeError):
        hash(built)
