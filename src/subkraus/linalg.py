"""Dense complex-matrix primitives.

Tensor products, partial traces over either factor of a bipartite index,
a deterministic Hermitian eigendecomposition, and Hamiltonian evolution
unitaries. Everything here is a pure function over immutable values;
inputs are never mutated.

The bipartite index convention is subsystem-1 major: the composite row
index is ``i * d2 + k`` for subsystem-1 index ``i`` and subsystem-2
index ``k``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Structural tolerance guards exact linear-algebra identities; the looser
# model tolerance absorbs cancellation in closed-form channel coefficients.
STRUCTURAL_TOL = 1e-12
MODEL_TOL = 1e-8


def as_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex array, rejecting anything else."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def max_abs(m: np.ndarray) -> float:
    return float(np.abs(m).max())


def hermiticity_defect(m: np.ndarray) -> float:
    return max_abs(m - dagger(m))


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product; entry ((i*db+k),(j*db+l)) = a[i,j] * b[k,l]."""
    return np.kron(as_complex_matrix(a, "a"), as_complex_matrix(b, "b"))


def partial_trace(m, d1: int, d2: int, keep: int) -> np.ndarray:
    """Trace out one factor of a (d1*d2)-dimensional operator.

    ``keep=1`` returns the d1-dimensional operator with subsystem 2 summed
    out, ``keep=2`` the mirror image.
    """
    a = as_complex_matrix(m)
    if d1 < 1 or d2 < 1:
        raise ValueError(f"subsystem dimensions must be positive, got {d1}, {d2}")
    if a.shape[0] != d1 * d2:
        raise ValueError(
            f"dimension mismatch: matrix is {a.shape[0]}-dimensional, "
            f"but d1*d2 = {d1 * d2}"
        )
    blocks = a.reshape(d1, d2, d1, d2)
    if keep == 1:
        return np.einsum("ikjk->ij", blocks)
    if keep == 2:
        return np.einsum("ikil->kl", blocks)
    raise ValueError(f"keep must be 1 or 2, got {keep}")


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues with the matching eigenvector columns.

    ``unitary[:, p]`` is the eigenvector for ``eigenvalues[p]``; the phase of
    each column is fixed by making its largest-magnitude component (the
    first, on ties) real and positive, and exact eigenvalue ties are ordered
    by the first differing eigenvector component, so the output is
    deterministic.
    """

    eigenvalues: np.ndarray
    unitary: np.ndarray


def hermitian_eig(h, tol: float = STRUCTURAL_TOL) -> EigenDecomposition:
    """Diagonalize a Hermitian matrix with LAPACK ``eigh``.

    The phase and tie-order conventions of ``EigenDecomposition`` make the
    output deterministic; an all-zero input returns the identity as its
    eigenvectors.
    """
    a = as_complex_matrix(h, "h")
    defect = hermiticity_defect(a)
    if not defect <= tol:
        raise ValueError(
            f"matrix is not Hermitian: max |h - h^dagger| = {defect:.3e} > {tol:.1e}"
        )
    n = a.shape[0]
    if not a.any():
        return EigenDecomposition(np.zeros(n), np.eye(n, dtype=complex))
    w, v = np.linalg.eigh((a + dagger(a)) / 2)
    pivot_at = (np.argmax(np.abs(v), axis=0), np.arange(n))
    magnitudes = np.abs(v[pivot_at])
    v = v * (v[pivot_at].conj() / magnitudes)
    v[pivot_at] = magnitudes  # exactly real, not real up to rounding
    # lexsort's last key is the primary one: w, then re/im of row 0, row 1, ...
    components = np.stack((v.real, v.imag), axis=1).reshape(2 * n, n)
    order = np.lexsort((*components[::-1], w))
    return EigenDecomposition(w[order], v[:, order])


def evolution_unitary(h, t: float, tol: float = STRUCTURAL_TOL) -> np.ndarray:
    """exp(-i*h*t) for Hermitian h (units with hbar = 1)."""
    eig = hermitian_eig(h, tol=tol)
    phases = np.exp(-1j * eig.eigenvalues * float(t))
    return (eig.unitary * phases) @ dagger(eig.unitary)
