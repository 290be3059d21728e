"""Orthonormal Hermitian operator bases.

The construction is the generalized Gell-Mann family normalized to
``tr(g_i g_j) = delta_ij``, ordered so that coefficient indices are stable:
identity first, then the symmetric off-diagonal pairs, the antisymmetric
pairs, and the traceless diagonal elements. At dimension 2 this is exactly
the Pauli set {I, sigma_x, sigma_y, sigma_z} / sqrt(2), so indices 0..3
carry their usual meaning.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    STRUCTURAL_TOL, as_complex_matrix, complex_array, matrix_stack, positive_int,
    require_hermitian,
)


@dataclass(frozen=True, eq=False)
class OperatorBasis:
    """An ordered, orthonormal set of d*d Hermitian operators on dimension d,
    stored as one read-only (d*d, d, d) array whose rows are ``elements``.
    Two bases are equal when their dimension and elements are; bases are
    unhashable."""

    dim: int
    elements: tuple[np.ndarray, ...]
    _stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = positive_int(self.dim, "dimension")
        if len(self.elements) != d * d:
            raise ValueError(
                f"basis for dimension {d} needs {d * d} elements, got {len(self.elements)}"
            )
        stack = matrix_stack(self.elements, d, "elements")
        require_hermitian(stack, "element")
        gram = np.einsum("iab,jba->ij", stack, stack)
        if not np.abs(gram - np.eye(d * d)).max() <= STRUCTURAL_TOL:
            raise ValueError("basis is not orthonormal under tr(g_i g_j) = delta_ij")
        if not np.abs(stack[0] - np.eye(d) / np.sqrt(d)).max() <= STRUCTURAL_TOL:
            raise ValueError("element 0 must be identity / sqrt(d)")
        stack.setflags(write=False)
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "elements", tuple(stack))

    def stacked(self) -> np.ndarray:
        """All elements as one read-only (d*d, d, d) array."""
        return self._stack

    def __eq__(self, other):
        if not isinstance(other, OperatorBasis):
            return NotImplemented
        return self.dim == other.dim and np.array_equal(self._stack, other._stack)

    __hash__ = None


@functools.lru_cache(maxsize=16, typed=True)  # typed: 2.0 and True miss the entries of 2 and 1
def build_hermitian_basis(d: int) -> OperatorBasis:
    """Generalized Gell-Mann basis for dimension d, built once per dimension."""
    d = positive_int(d, "dimension")
    stack = np.zeros((d * d, d, d), dtype=complex)
    stack[0] = np.eye(d) / np.sqrt(d)
    rows, cols = np.triu_indices(d, 1)  # the pairs j < k, row by row
    sym = np.arange(1, len(rows) + 1)
    anti = sym + len(rows)
    stack[sym, rows, cols] = stack[sym, cols, rows] = 1 / np.sqrt(2)
    stack[anti, rows, cols] = -1j / np.sqrt(2)
    stack[anti, cols, rows] = 1j / np.sqrt(2)
    for l in range(1, d):
        diag = np.zeros(d, dtype=complex)
        diag[:l] = 1.0
        diag[l] = -l
        stack[d * d - d + l] = np.diag(diag) / np.sqrt(l * (l + 1))
    return OperatorBasis(d, stack)


def expand(m, basis: OperatorBasis) -> np.ndarray:
    """Coefficients c_i = tr(m g_i); complex in general, real for Hermitian m."""
    a = as_complex_matrix(m)
    if a.shape[0] != basis.dim:
        raise ValueError(
            f"dimension mismatch: matrix is {a.shape[0]}-dimensional, basis is {basis.dim}"
        )
    return np.einsum("ab,iba->i", a, basis.stacked())


def reconstruct(coefficients, basis: OperatorBasis) -> np.ndarray:
    """Sum c_i g_i; inverse of :func:`expand`."""
    c = complex_array(coefficients, "coefficients")
    if c.shape != (basis.dim * basis.dim,):
        raise ValueError(
            f"expected {basis.dim * basis.dim} coefficients, got shape {c.shape}"
        )
    return np.einsum("i,iab->ab", c, basis.stacked())
