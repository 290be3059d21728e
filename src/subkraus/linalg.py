"""Dense complex-matrix primitives.

Tensor products, partial traces over either factor of a bipartite index,
a deterministic Hermitian eigendecomposition (of one matrix or of a stack),
Hamiltonian evolution unitaries, and the scalar and per-matrix checks shared
by the input boundaries and gates of the other modules. Everything here is a
pure function over immutable values; inputs are never mutated.

The bipartite index convention is subsystem-1 major: the composite row
index is ``i * d2 + k`` for subsystem-1 index ``i`` and subsystem-2
index ``k``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

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


def as_complex_stack(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a complex square matrix or (..., n, n) stack of them."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise ValueError(
            f"{name} must be a square matrix or a stack of them, got shape {a.shape}"
        )
    return a


def nonnegative_real(value, name: str) -> float:
    """``value`` as a float if it is a finite, nonnegative real number.

    Booleans are rejected although Python counts them as integers. The
    message names the value as ``name``.
    """
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")
    return float(value)


def positive_int(value, name: str) -> int:
    """``value`` as an int if it is an int or numpy integer of at least 1;
    bools, floats (2.0 too) and strings raise a ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def subsystem_keep(keep) -> int:
    """``keep`` as an int if it is the int or numpy integer 1 or 2; bools,
    floats (1.0 too) and strings raise a ValueError naming ``keep``."""
    if isinstance(keep, bool) or not isinstance(keep, (int, np.integer)):
        raise ValueError(f"keep must be an integer, got {keep!r}")
    if keep not in (1, 2):
        raise ValueError(f"keep must be 1 or 2, got {keep}")
    return int(keep)


def matrix_stack(matrices, dim: int, name: str) -> np.ndarray:
    """``dim`` x ``dim`` matrices, a sequence or an (n, dim, dim) array, copied
    into one new complex (n, dim, dim) array by one ``np.array`` call; only if
    that fails are they walked, to name the first bad one as ``name[i]``."""
    try:
        stack = np.array(matrices, dtype=complex)
    except (TypeError, ValueError):
        stack = None
    if stack is None or stack.ndim != 3 or stack.shape[1:] != (dim, dim):
        for i, m in enumerate(matrices):
            a = as_complex_matrix(m, f"{name}[{i}]")
            if a.shape[0] != dim:
                raise ValueError(f"{name}[{i}] has dimension {a.shape[0]}, expected {dim}")
        raise ValueError(f"{name} must be a sequence of {dim}x{dim} matrices")
    return stack


def first_failure(ok: np.ndarray) -> Optional[int]:
    """Flat index of the first False among per-matrix gate verdicts, or None.

    Verdicts are written ``x <= tol``, so a NaN measurement counts as a
    failure. An empty array has no failure.
    """
    if ok.ndim == 0:
        return None if ok else 0
    if ok.size == 0:
        return None
    i = int(ok.argmin())  # the first False, or 0 when all hold
    return None if ok.flat[i] else i


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def max_abs(m: np.ndarray) -> float:
    return float(np.abs(m).max())


def hermiticity_defect(m: np.ndarray):
    """max |m - m^dagger| of a matrix, or of each matrix of a (..., n, n) stack."""
    return np.abs(m - dagger(m)).max(axis=(-2, -1))


def require_hermitian(m: np.ndarray, name: str, tol: float = STRUCTURAL_TOL) -> None:
    """Raise ValueError unless ``m``, or each matrix of a (..., n, n) stack,
    is Hermitian within ``tol``; a NaN defect fails. The message calls the
    matrix ``name``, and a stack's first failing member ``name`` and its flat
    position."""
    defect = hermiticity_defect(m)
    bad = first_failure(defect <= tol)
    if bad is not None:
        member = name if m.ndim == 2 else f"{name} {bad} of the stack"
        raise ValueError(
            f"{member} is not Hermitian (defect {defect.flat[bad]:.3e} > {tol:.1e})"
        )


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product; entry ((i*db+k),(j*db+l)) = a[i,j] * b[k,l]."""
    return np.kron(as_complex_matrix(a, "a"), as_complex_matrix(b, "b"))


def partial_trace(m, d1: int, d2: int, keep: int) -> np.ndarray:
    """Trace out one factor of a (d1*d2)-dimensional operator.

    ``keep=1`` returns the d1-dimensional operator with subsystem 2 summed
    out, ``keep=2`` the mirror image.
    """
    a = as_complex_matrix(m)
    keep = subsystem_keep(keep)
    d1 = positive_int(d1, "subsystem dimension d1")
    d2 = positive_int(d2, "subsystem dimension d2")
    if a.shape[0] != d1 * d2:
        raise ValueError(
            f"dimension mismatch: matrix is {a.shape[0]}-dimensional, "
            f"but d1*d2 = {d1 * d2}"
        )
    blocks = a.reshape(d1, d2, d1, d2)
    return np.einsum("ikjk->ij" if keep == 1 else "ikil->kl", blocks)


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues with the matching eigenvector columns.

    ``unitary[..., :, p]`` is the eigenvector for ``eigenvalues[..., p]``; the
    phase of each column is fixed by making its largest-magnitude component
    (the first, on ties) real and positive, and exact eigenvalue ties are
    ordered by the first differing eigenvector component, so the output is
    deterministic. For a stack of matrices both arrays carry its leading axes.
    """

    eigenvalues: np.ndarray
    unitary: np.ndarray


def hermitian_eig(h, tol: float = STRUCTURAL_TOL) -> EigenDecomposition:
    """Diagonalize a Hermitian matrix, or each of a (..., n, n) stack, with
    LAPACK ``eigh``.

    The phase and tie-order conventions of ``EigenDecomposition`` make the
    output deterministic, and each matrix of a stack comes out exactly as it
    would alone; an all-zero matrix returns the identity as its eigenvectors.
    """
    a = as_complex_stack(h, "h")
    require_hermitian(a, "matrix", tol)
    n = a.shape[-1]
    w, v = np.linalg.eigh((a + dagger(a)) / 2)
    # one flat batch axis b; index arrays (b, row, column) instead of
    # take_along_axis, whose index building dominates at n = 4
    w = w.reshape(-1, n)
    v = v.reshape(-1, n, n)
    batch = np.arange(len(w))[:, None]
    cols = np.arange(n)
    pivot = (batch, np.abs(v).argmax(axis=1), cols)
    pivots = v[pivot]
    magnitudes = np.abs(pivots)
    v *= (pivots.conj() / magnitudes)[:, None, :]
    v[pivot] = magnitudes  # exactly real, not real up to rounding
    # eigh's w is ascending, so the tie sort is the identity unless two
    # eigenvalues of a row are exactly equal
    if (w[:, 1:] == w[:, :-1]).any():
        # lexsort's last key is the primary one: w, then re/im of row 0, row 1, ...
        keys = np.empty((2 * n + 1, *w.shape))
        keys[-1] = w
        keys[-2::-2] = v.real.transpose(1, 0, 2)
        keys[-3::-2] = v.imag.transpose(1, 0, 2)
        order = np.lexsort(keys, axis=-1)
        w = w[batch, order]
        v = v[batch[:, :, None], cols[:, None], order[:, None, :]]
    zero = ~a.reshape(len(w), n * n).any(axis=1)
    if zero.any():
        w[zero] = 0.0
        v[zero] = np.eye(n)
    w = w.reshape(a.shape[:-1])
    v = v.reshape(a.shape)
    return EigenDecomposition(w, v)


def evolution_unitary(h, t: float, tol: float = STRUCTURAL_TOL) -> np.ndarray:
    """exp(-i*h*t) for Hermitian h (units with hbar = 1)."""
    eig = hermitian_eig(h, tol=tol)
    phases = np.exp(-1j * eig.eigenvalues * float(t))
    return (eig.unitary * phases) @ dagger(eig.unitary)
