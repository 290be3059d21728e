import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import SIGMA, bell_state, random_complex, random_hermitian, rng_from
from subkraus.linalg import (
    EigenDecomposition,
    evolution_unitary,
    hermitian_eig,
    matrix_stack,
    partial_trace,
    positive_int,
    require_hermitian,
    tensor_product,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestTensorProduct:
    def test_identity_pair(self):
        out = tensor_product(np.eye(2), np.eye(2))
        np.testing.assert_array_equal(out, np.eye(4))

    def test_sigma_z_pair(self):
        out = tensor_product(SIGMA[3], SIGMA[3])
        np.testing.assert_array_equal(out, np.diag([1, -1, -1, 1]).astype(complex))

    def test_entry_convention(self):
        a = np.arange(4, dtype=complex).reshape(2, 2)
        b = np.arange(9, dtype=complex).reshape(3, 3)
        out = tensor_product(a, b)
        for i in range(2):
            for j in range(2):
                for k in range(3):
                    for l in range(3):
                        assert out[i * 3 + k, j * 3 + l] == a[i, j] * b[k, l]

    @given(seeds)
    def test_mixed_product_rule(self, seed):
        rng = rng_from(seed)
        a, b, c, d = (random_complex(rng, 2) for _ in range(4))
        lhs = tensor_product(a, b) @ tensor_product(c, d)
        rhs = tensor_product(a @ c, b @ d)
        assert np.abs(lhs - rhs).max() < 1e-13

    @given(seeds)
    def test_associative_and_bilinear(self, seed):
        rng = rng_from(seed)
        a, b, c = (random_complex(rng, 2) for _ in range(3))
        assoc = tensor_product(tensor_product(a, b), c) - tensor_product(a, tensor_product(b, c))
        assert np.abs(assoc).max() < 1e-12
        x, y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        lin = tensor_product(x * a + y * b, c) - x * tensor_product(a, c) - y * tensor_product(b, c)
        assert np.abs(lin).max() < 1e-12

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            tensor_product(np.ones((2, 3)), np.eye(2))


class TestPartialTrace:
    def test_product_rule(self):
        rng = rng_from(42)
        a = random_complex(rng, 2)
        b = random_complex(rng, 3)
        out = partial_trace(tensor_product(a, b), 2, 3, keep=1)
        assert np.abs(out - a * np.trace(b)).max() < 1e-13
        out2 = partial_trace(tensor_product(a, b), 2, 3, keep=2)
        assert np.abs(out2 - b * np.trace(a)).max() < 1e-13

    def test_bell_marginal(self):
        out = partial_trace(bell_state().matrix, 2, 2, keep=1)
        np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-15)

    @given(seeds)
    def test_trace_preserved(self, seed):
        rng = rng_from(seed)
        m = random_complex(rng, 4)
        # independent oracle: direct elementwise summation
        direct = sum(m[i, i] for i in range(4))
        assert abs(np.trace(partial_trace(m, 2, 2, keep=1)) - direct) < 1e-13
        assert abs(np.trace(partial_trace(m, 2, 2, keep=2)) - direct) < 1e-13

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), 2, 3, keep=1)

    def test_bad_selector_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), 2, 2, keep=3)
        for keep in (True, np.bool_(True), 1.0, np.float64(2.0), "1"):
            with pytest.raises(ValueError, match="keep must be an integer"):
                partial_trace(np.eye(4), 2, 2, keep=keep)
        np.testing.assert_array_equal(partial_trace(np.eye(4), 2, 2, keep=np.int64(2)), 2 * np.eye(2))

    @pytest.mark.parametrize("d1,d2,name", [(True, 4, "d1"), (2, 2.0, "d2"), (-2, -2, "d1")])
    def test_mistyped_dimension_named(self, d1, d2, name):
        # each of these has d1 * d2 == 4, so only the dimension rule catches it
        with pytest.raises(ValueError, match=f"subsystem dimension {name} must be a positive"):
            partial_trace(np.eye(4), d1, d2, keep=1)


class TestInputRules:
    def test_positive_int(self):
        assert positive_int(np.int64(3), "n") == 3
        assert type(positive_int(np.int64(3), "n")) is int
        for bad in (0, -1, True, np.bool_(True), 1.0, "1", None, 1 + 0j):
            with pytest.raises(ValueError, match="n must be a positive integer"):
                positive_int(bad, "n")

    def test_matrix_stack_copies_and_names_the_bad_matrix(self):
        ops = [np.eye(2), SIGMA[1]]
        stack = matrix_stack(ops, 2, "ops")
        assert stack.dtype == complex and stack.shape == (2, 2, 2)
        ops[0][0, 0] = 5.0
        assert stack[0, 0, 0] == 1.0
        with pytest.raises(ValueError, match=r"ops\[1\] has dimension 3, expected 2"):
            matrix_stack([np.eye(2), np.eye(3)], 2, "ops")
        with pytest.raises(ValueError, match=r"ops\[0\] must be a square matrix"):
            matrix_stack([np.ones((2, 3))], 2, "ops")
        # an iterable that np.array cannot stack, although each matrix is fine
        with pytest.raises(ValueError, match="ops must be a sequence of 2x2 matrices"):
            matrix_stack({0: np.eye(2)}.values(), 2, "ops")


class TestHermitianEig:
    def test_sigma_z(self):
        eig = hermitian_eig(SIGMA[3])
        np.testing.assert_allclose(eig.eigenvalues, [-1.0, 1.0], atol=1e-15)

    def test_sigma_x_vectors(self):
        eig = hermitian_eig(SIGMA[1])
        np.testing.assert_allclose(eig.eigenvalues, [-1.0, 1.0], atol=1e-15)
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(eig.unitary[:, 0], [s, -s], atol=1e-12)
        np.testing.assert_allclose(eig.unitary[:, 1], [s, s], atol=1e-12)

    @given(seeds, st.integers(min_value=2, max_value=9))
    @settings(max_examples=60)
    def test_reconstruction_and_unitarity(self, seed, d):
        h = random_hermitian(rng_from(seed), d)
        eig = hermitian_eig(h)
        recon = (eig.unitary * eig.eigenvalues) @ eig.unitary.conj().T
        assert np.abs(recon - h).max() < 1e-12
        gram = eig.unitary.conj().T @ eig.unitary
        assert np.abs(gram - np.eye(d)).max() < 1e-12
        assert np.all(np.diff(eig.eigenvalues) >= 0)
        # independent oracle for the spectrum itself
        np.testing.assert_allclose(eig.eigenvalues, np.linalg.eigvalsh(h), atol=1e-11)

    def test_deterministic_output(self):
        h = random_hermitian(rng_from(123), 6)
        a = hermitian_eig(h)
        b = hermitian_eig(h.copy())
        assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
        assert a.unitary.tobytes() == b.unitary.tobytes()

    def test_exact_tie_order(self):
        # equal eigenvalues are ordered by their eigenvectors' components:
        # e1 = (0, 1, 0) sorts before e0 = (1, 0, 0)
        eig = hermitian_eig(np.diag([1.0, 1.0, 2.0]))
        np.testing.assert_array_equal(eig.eigenvalues, [1.0, 1.0, 2.0])
        np.testing.assert_array_equal(eig.unitary, np.eye(3)[:, [1, 0, 2]])

    @given(seeds, st.integers(min_value=2, max_value=9))
    @settings(max_examples=40)
    def test_phase_convention(self, seed, d):
        eig = hermitian_eig(random_hermitian(rng_from(seed), d))
        for p in range(d):
            col = eig.unitary[:, p]
            pivot = col[np.argmax(np.abs(col))]
            assert pivot.imag == 0.0 and pivot.real > 0.0

    def test_zero_matrix(self):
        eig = hermitian_eig(np.zeros((3, 3)))
        np.testing.assert_array_equal(eig.eigenvalues, np.zeros(3))
        np.testing.assert_array_equal(eig.unitary, np.eye(3))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eig(np.array([[np.nan, 0], [0, 1]]))

    def test_returns_type(self):
        assert isinstance(hermitian_eig(SIGMA[3]), EigenDecomposition)


class TestEvolutionUnitary:
    def test_zero_hamiltonian(self):
        np.testing.assert_allclose(evolution_unitary(np.zeros((3, 3)), 1.7), np.eye(3), atol=1e-15)

    def test_sigma_z_quarter_period(self):
        u = evolution_unitary(SIGMA[3], np.pi / 2)
        np.testing.assert_allclose(u, np.diag([-1j, 1j]), atol=1e-14)

    @given(seeds)
    @settings(max_examples=40)
    def test_inverse_at_negative_time(self, seed):
        rng = rng_from(seed)
        h = random_hermitian(rng, 4)
        t = float(rng.uniform(-3, 3))
        prod = evolution_unitary(h, t) @ evolution_unitary(h, -t)
        assert np.abs(prod - np.eye(4)).max() < 1e-12

    @given(seeds)
    @settings(max_examples=40)
    def test_unitarity(self, seed):
        rng = rng_from(seed)
        h = random_hermitian(rng, 3)
        u = evolution_unitary(h, float(rng.uniform(0, 2)))
        assert np.abs(u.conj().T @ u - np.eye(3)).max() < 1e-12


def always_sorted_eig(h):
    """The eigensolver's conventions with the tie sort applied to every row,
    whether or not it has a tie: the reference for the tie-only sort."""
    a = np.asarray(h, dtype=complex)
    n = a.shape[-1]
    w, v = np.linalg.eigh((a + a.conj().swapaxes(-1, -2)) / 2)
    w = w.reshape(-1, n)
    v = v.reshape(-1, n, n)
    batch = np.arange(len(w))[:, None]
    cols = np.arange(n)
    pivot = (batch, np.abs(v).argmax(axis=1), cols)
    pivots = v[pivot]
    magnitudes = np.abs(pivots)
    v *= (pivots.conj() / magnitudes)[:, None, :]
    v[pivot] = magnitudes
    keys = np.empty((2 * n + 1, *w.shape))
    keys[-1] = w
    keys[-2::-2] = v.real.transpose(1, 0, 2)
    keys[-3::-2] = v.imag.transpose(1, 0, 2)
    order = np.lexsort(keys, axis=-1)
    w = w[batch, order]
    v = v[batch[:, :, None], cols[:, None], order[:, None, :]]
    zero = ~a.any(axis=(-2, -1))
    if zero.any():
        w[zero.reshape(-1)] = 0.0
        v[zero.reshape(-1)] = np.eye(n)
    return w.reshape(a.shape[:-1]), v.reshape(a.shape)


class TestTieOnlySort:
    def assert_matches_reference(self, h):
        eig = hermitian_eig(h)
        w, v = always_sorted_eig(h)
        assert eig.eigenvalues.tobytes() == w.tobytes()
        assert eig.unitary.tobytes() == v.tobytes()

    def test_stack_without_ties(self):
        rng = rng_from(5)
        for d in (2, 3, 4, 6):
            self.assert_matches_reference(np.array([random_hermitian(rng, d) for _ in range(7)]))
            self.assert_matches_reference(random_hermitian(rng, d))

    def test_stack_with_ties(self):
        rng = rng_from(6)
        mats = [random_hermitian(rng, 4) for _ in range(3)]
        mats.append(np.diag([2.0, 0.5, 0.5, 0.0]).astype(complex))
        mats.append(np.diag([3.0, 3.0, 3.0, 3.0]).astype(complex))
        mats.append(np.zeros((4, 4), dtype=complex))
        mats.append(np.diag([0.0, -0.0, 1.0, -0.0]).astype(complex))
        mats.append(np.kron(SIGMA[1], SIGMA[1]))
        stack = np.array(mats)
        self.assert_matches_reference(stack)
        for h in stack:
            self.assert_matches_reference(h)


class TestStackedHermitianEig:
    def stack(self):
        rng = rng_from(31)
        mats = [random_hermitian(rng, 4) for _ in range(5)]
        mats.append(np.diag([2.0, 0.5, 0.5, 0.0]).astype(complex))  # the model's b1 == b2 tie
        mats.append(np.diag([1.0, 1.0, 1.0, 2.0]).astype(complex))
        mats.append(np.zeros((4, 4), dtype=complex))
        mats.append(np.kron(SIGMA[1], SIGMA[1]))  # exact ties with non-unit eigenvectors
        return np.array(mats)

    def test_each_member_equals_the_single_call(self):
        stack = self.stack()
        eig = hermitian_eig(stack)
        assert eig.eigenvalues.shape == (len(stack), 4)
        assert eig.unitary.shape == stack.shape
        for i, h in enumerate(stack):
            one = hermitian_eig(h)
            np.testing.assert_array_equal(eig.eigenvalues[i], one.eigenvalues)
            np.testing.assert_array_equal(eig.unitary[i], one.unitary)

    def test_leading_axes_are_kept(self):
        stack = self.stack()[:8].reshape(2, 4, 4, 4)
        eig = hermitian_eig(stack)
        flat = hermitian_eig(stack.reshape(8, 4, 4))
        np.testing.assert_array_equal(eig.unitary.reshape(8, 4, 4), flat.unitary)
        np.testing.assert_array_equal(eig.eigenvalues.reshape(8, 4), flat.eigenvalues)

    def test_zero_member(self):
        eig = hermitian_eig(self.stack())
        np.testing.assert_array_equal(eig.eigenvalues[7], np.zeros(4))
        np.testing.assert_array_equal(eig.unitary[7], np.eye(4))

    def test_nan_member_rejected_by_position(self):
        stack = self.stack()
        stack[2, 1, 1] = np.nan
        with pytest.raises(ValueError, match="matrix 2 of the stack is not Hermitian"):
            hermitian_eig(stack)

    def test_non_hermitian_member_rejected_by_position(self):
        stack = self.stack()
        stack[4, 0, 1] += 1e-6
        with pytest.raises(ValueError, match="matrix 4 of the stack"):
            hermitian_eig(stack)

    def test_gate_names_the_matrix_and_fails_on_nan(self):
        stack = self.stack()
        require_hermitian(stack, "B matrix")
        require_hermitian(stack[4], "B matrix")
        stack[4, 0, 1] += 1e-6
        with pytest.raises(ValueError, match=r"^B matrix is not Hermitian \(defect 1.000e-06 > 1.0e-12\)$"):
            require_hermitian(stack[4], "B matrix")
        require_hermitian(stack[4], "B matrix", tol=1e-5)
        stack[1, 2, 2] = np.nan
        with pytest.raises(ValueError, match=r"B matrix 1 of the stack is not Hermitian \(defect nan"):
            require_hermitian(stack, "B matrix", tol=1e-5)

    def test_empty_stack(self):
        eig = hermitian_eig(np.zeros((0, 3, 3), dtype=complex))
        assert eig.eigenvalues.shape == (0, 3) and eig.unitary.shape == (0, 3, 3)

    def test_rejects_non_square_stack(self):
        with pytest.raises(ValueError, match="square"):
            hermitian_eig(np.zeros((3, 2, 4)))
