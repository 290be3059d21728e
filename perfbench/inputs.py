"""Seeded benchmark inputs built with numpy alone.

Nothing here imports the package under test, so a change to its numerics
changes neither the inputs nor the time it takes to make them. Arrays are
returned plain; the workloads hand them to the package.
"""

from __future__ import annotations

import json

import numpy as np


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_cptp(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    """Kraus operators G_k S^(-1/2) with S = sum_k G_k^dagger G_k, stacked (count, dim, dim)."""
    g = complex_gaussian(rng, (count, dim, dim))
    s = np.einsum("kba,kbc->ac", g.conj(), g)
    w, u = np.linalg.eigh(s)
    return g @ ((u / np.sqrt(w)) @ u.conj().T)


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Full-rank state M M^dagger / tr, exactly Hermitian."""
    m = complex_gaussian(rng, (dim, dim))
    r = m @ m.conj().T
    r = (r + r.conj().T) / 2
    return r / np.trace(r).real


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(complex_gaussian(rng, (dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def product_channel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kraus operators A_i (x) B_j of the product channel, stacked."""
    return np.stack([np.kron(x, y) for x in a for y in b])


def qubit_state(a: float) -> np.ndarray:
    """sqrt(a)|0> + sqrt(1-a)|1> as a density matrix (the model's qubit-2 family)."""
    v = np.array([np.sqrt(a), np.sqrt(1.0 - a)])
    return np.outer(v, v).astype(complex)


def equal_marginal_pair(rng: np.random.Generator, d: int) -> tuple[np.ndarray, np.ndarray]:
    """A classically correlated state and the product of its marginals.

    Both have the same subsystem-1 marginal U diag(p) U^dagger.
    """
    p = rng.uniform(0.2, 1.0, d)
    p /= p.sum()
    u, v = random_unitary(rng, d), random_unitary(rng, d)
    w = np.kron(u, v)
    corr = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        corr[i * d + i, i * d + i] = p[i]
    correlated = w @ corr @ w.conj().T
    m1 = u @ np.diag(p) @ u.conj().T
    m2 = v @ np.diag(p) @ v.conj().T
    product = np.kron(m1, m2)
    return (correlated + correlated.conj().T) / 2, (product + product.conj().T) / 2


def sweep_params(rng: np.random.Generator) -> dict:
    """Damping rates, qubit-2 population and sweep length for one case-study run."""
    return {
        "gamma1": float(rng.uniform(0.1, 2.0)),
        "gamma2": float(rng.uniform(0.1, 2.0)),
        "a": float(rng.uniform(0.0, 1.0)),
        "t_max": float(rng.uniform(0.1, 2.0)),
    }


def matrix_pairs(m: np.ndarray) -> list:
    """Rows of [re, im] pairs, the wire format of a matrix."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def map_file_text(ops: np.ndarray) -> str:
    """Map file in the documented wire format, written without the package."""
    return json.dumps({"dim": int(ops.shape[1]), "kraus": [matrix_pairs(k) for k in ops]}) + "\n"


def density_file_text(rho: np.ndarray) -> str:
    return json.dumps({"dim": int(rho.shape[0]), "rho": matrix_pairs(rho)}) + "\n"
