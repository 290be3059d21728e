"""Shared random-object builders and small oracles for the test suite.

Oracles here deliberately avoid the library's own pipeline: reduced channels
are computed by evolving the composite system directly, eigensystems are
cross-checked against numpy, and Choi matrices are assembled entry by entry.
The random builders and the brute-force reduced Choi matrix are the ones the
``verify`` self-checks use, imported from ``subkraus.verify``.
"""

from __future__ import annotations

import numpy as np

from subkraus import Bipartition, DensityMatrix, KrausMap
from subkraus.channels import apply_matrix
from subkraus.linalg import partial_trace, tensor_product
from subkraus.verify import (
    brute_force_reduced_choi,
    random_complex,
    random_hermitian,
    random_tp_kraus,
)

SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def rng_from(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_density(rng, d: int) -> DensityMatrix:
    m = random_complex(rng, d)
    rho = m @ m.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


def random_unitary(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(random_complex(rng, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def bell_state() -> DensityMatrix:
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return DensityMatrix(np.outer(v, v.conj()))


def brute_force_reduced_state(
    kmap: KrausMap, split: Bipartition, rho1: DensityMatrix, rho2: DensityMatrix
) -> np.ndarray:
    """tr_2 of the composite evolution of rho1 (x) rho2."""
    joint = tensor_product(rho1.matrix, rho2.matrix)
    return partial_trace(apply_matrix(kmap, joint), split.d1, split.d2, keep=1)


def choi_by_definition(kmap: KrausMap) -> np.ndarray:
    """Choi matrix assembled block by block from the definition."""
    d = kmap.dim
    out = np.zeros((d * d, d * d), dtype=complex)
    for a in range(d):
        for b in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[a, b] = 1.0
            out[a * d : (a + 1) * d, b * d : (b + 1) * d] = apply_matrix(kmap, unit)
    return out
