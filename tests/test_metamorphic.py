"""Metamorphic relations of the subsystem reduction.

Each test transforms the input of a reduction in a way whose effect on the
reduced channel is known in closed form, and compares the two channels
through their Choi matrices at the structural bound. None of them needs an
oracle: a relation holds or it does not, whatever the map.
"""

import numpy as np
import pytest

from helpers import random_density, random_tp_kraus, random_unitary, rng_from
from subkraus.basis import build_hermitian_basis
from subkraus.casestudy import DampingRates, composite_kraus, qubit_state
from subkraus.channels import DensityMatrix, KrausMap, choi_distance, choi_of_any
from subkraus.linalg import STRUCTURAL_TOL, max_abs, tensor_product
from subkraus.reduction import Bipartition, reduce_subsystem

SPLITS = [(2, 2), (2, 3), (3, 2), (3, 3)]


def random_case(seed, d1, d2, n=3):
    """A random TP map on d1 x d2 and a random complex state of each factor."""
    rng = rng_from(seed)
    return rng, random_tp_kraus(rng, d1 * d2, n), random_density(rng, d1), random_density(rng, d2)


def choi_of_kept_spectrum(result, d):
    """W b_kept W^dagger, with W[:, i] the column-major vec(g_i) of the kept
    factor's basis and b_kept the clamped, kept spectrum of b."""
    w = build_hermitian_basis(d).stacked().swapaxes(-1, -2).reshape(d * d, d * d).T
    kept = np.arange(len(result.eigenvalues)) < len(result.subsystem_map.operators)
    b_kept = (result.mixing * np.where(kept, result.eigenvalues, 0.0)) @ result.mixing.conj().T
    return w @ b_kept @ w.conj().T


@pytest.mark.parametrize("d1, d2", SPLITS)
@pytest.mark.parametrize("keep", [1, 2])
@pytest.mark.parametrize("truncation", [0.0, 0.5])
def test_choi_is_the_kept_spectrum_of_b(d1, d2, keep, truncation):
    _, kmap, rho1, rho2 = random_case(10 * d1 + d2, d1, d2)
    # the dropped operators carry weight, so the kept ones are not complete
    # and the parent cannot be asserted trace preserving
    parent = KrausMap(d1 * d2, kmap.stacked(), trace_preserving=False)
    result = reduce_subsystem(
        parent, Bipartition(d1, d2), rho2 if keep == 1 else rho1, keep=keep, truncation=truncation
    )
    assert (result.truncated_count > 0) == (truncation > 0.0)
    d = d1 if keep == 1 else d2
    choi = choi_of_any(result.subsystem_map)
    assert max_abs(choi - choi_of_kept_spectrum(result, d)) <= STRUCTURAL_TOL
    kept_mass = result.eigenvalues[: len(result.subsystem_map.operators)].sum()
    assert abs(np.trace(choi).real - kept_mass) <= STRUCTURAL_TOL


def test_dropped_eigenvalue_is_the_missing_choi_trace():
    # the case-study point where truncation leaves a reduced map complete at
    # model tolerance while its Choi trace falls short of 2 by 3.7e-10
    result = reduce_subsystem(
        composite_kraus(2e-6, DampingRates(0.3, 1.0)), Bipartition(2, 2), qubit_state(0.3),
        truncation=1e-9,
    )
    assert result.truncated_count == 1
    dropped = result.eigenvalues[-1]
    assert 1e-10 < dropped < 1e-9
    choi = choi_of_any(result.subsystem_map)
    assert max_abs(choi - choi_of_kept_spectrum(result, 2)) <= STRUCTURAL_TOL
    assert abs(np.trace(choi).real - (result.eigenvalues.sum() - dropped)) <= STRUCTURAL_TOL


def swap(d1, d2):
    """The unitary taking |i>|j> on d1 x d2 to |j>|i> on d2 x d1."""
    s = np.zeros((d1 * d2, d1 * d2))
    for i in range(d1):
        for j in range(d2):
            s[j * d1 + i, i * d2 + j] = 1.0
    return s


@pytest.mark.parametrize("d1, d2", SPLITS)
def test_keep_2_is_the_swapped_keep_1(d1, d2):
    _, kmap, rho1, _ = random_case(20 + 10 * d1 + d2, d1, d2)
    s = swap(d1, d2)
    swapped = KrausMap(d1 * d2, s @ kmap.stacked() @ s.T)
    direct = reduce_subsystem(kmap, Bipartition(d1, d2), rho1, keep=2)
    mirror = reduce_subsystem(swapped, Bipartition(d2, d1), rho1, keep=1)
    distance = choi_distance(choi_of_any(direct.subsystem_map), choi_of_any(mirror.subsystem_map))
    assert distance <= STRUCTURAL_TOL


@pytest.mark.parametrize("d1, d2", SPLITS)
def test_local_unitaries_move_into_the_reduced_operators(d1, d2):
    rng, kmap, _, rho2 = random_case(40 + 10 * d1 + d2, d1, d2)
    u1, v1 = random_unitary(rng, d1), random_unitary(rng, d1)
    u2, v2 = random_unitary(rng, d2), random_unitary(rng, d2)
    dressed = KrausMap(d1 * d2, tensor_product(u1, u2) @ kmap.stacked() @ tensor_product(v1, v2))
    split = Bipartition(d1, d2)
    result = reduce_subsystem(dressed, split, rho2)
    moved = DensityMatrix(v2 @ rho2.matrix @ v2.conj().T)
    undressed = reduce_subsystem(kmap, split, moved).subsystem_map.stacked()
    distance = choi_distance(choi_of_any(result.subsystem_map), choi_of_any(u1 @ undressed @ v1))
    assert distance <= STRUCTURAL_TOL


@pytest.mark.parametrize("d1, d2", SPLITS)
@pytest.mark.parametrize("keep", [1, 2])
def test_kraus_gauge_leaves_the_reduced_channel(d1, d2, keep):
    rng, kmap, rho1, rho2 = random_case(60 + 10 * d1 + d2, d1, d2, n=4)
    mixed = KrausMap(d1 * d2, np.einsum("jk,kab->jab", random_unitary(rng, 4), kmap.stacked()))
    split, rho = Bipartition(d1, d2), (rho2 if keep == 1 else rho1)
    a = reduce_subsystem(kmap, split, rho, keep=keep).subsystem_map
    b = reduce_subsystem(mixed, split, rho, keep=keep).subsystem_map
    assert choi_distance(choi_of_any(a), choi_of_any(b)) <= STRUCTURAL_TOL
