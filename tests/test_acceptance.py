"""Acceptance suite: one test per release criterion, each at its stated
tolerance, each printing a PASS line with the measured residual.

Independent oracles: reduced channels are cross-checked against direct
composite evolution plus partial trace (never through the coefficient
pipeline), eigensystems against reconstruction identities, and closed-form
weights against the explicit formulas.
"""

import numpy as np
import pytest

from helpers import (
    SIGMA,
    brute_force_reduced_choi,
    brute_force_reduced_state,
    random_density,
    random_hermitian,
    rng_from,
)
from subkraus import cli
from subkraus.basis import build_hermitian_basis
from subkraus.casestudy import (
    DampingRates,
    closed_form_b,
    composite_kraus,
    qubit_state,
)
from subkraus.channels import (
    ChoiMatrix,
    DensityMatrix,
    KrausMap,
    channel_distance,
    choi_matrix,
    completeness_defect,
    cp_verdict,
    dump_density_json,
    dump_map_json,
    load_map_json,
    maximally_mixed,
)
from subkraus.linalg import hermitian_eig, max_abs, tensor_product
from subkraus.reduction import (
    Bipartition,
    SeparableEnsemble,
    c_coefficients,
    correlated_probe,
    factorization_check,
    reduce_separable_ensemble,
    reduce_subsystem,
    reduced_domain_verdict,
)

SPLIT = Bipartition(2, 2)
B2 = build_hermitian_basis(2)


def report(num: int, name: str, measured: float, bound: float, direction: str = "<"):
    print(f"criterion {num:02d} PASS  {name}: measured {measured:.3e} {direction} {bound:.1e}")


def test_criterion_01_oracle_equivalence():
    # 20 random tuples: reduced map output equals composite evolution + trace
    rng = rng_from(1001)
    residuals = []
    for _ in range(20):
        rates = DampingRates(float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.1, 2.0)))
        t = float(rng.uniform(0.1, 2.0))
        a = float(rng.uniform(0.0, 1.0))
        rho1 = random_density(rng, 2)
        rho2 = qubit_state(a)
        kmap = composite_kraus(t, rates)
        reduced = reduce_subsystem(kmap, SPLIT, rho2).subsystem_map
        via_algorithm = sum(op @ rho1.matrix @ op.conj().T for op in reduced.operators)
        via_composite = brute_force_reduced_state(kmap, SPLIT, rho1, rho2)
        residuals.append(max_abs(via_algorithm - via_composite))
    worst = np.max(residuals)
    assert worst < 1e-10
    report(1, "subsystem algorithm vs composite-evolution oracle", worst, 1e-10)


def _tau_grid_cases():
    rates = DampingRates(0.3, 1.0)
    total = rates.gamma1 + rates.gamma2
    for tau in np.linspace(0.0, 1.0, 50):
        for a in (0.0, 0.3, 1.0):
            yield rates, tau / total, a


def test_criterion_02_closed_form_regression():
    diag, off = [], []
    for rates, t, a in _tau_grid_cases():
        result = reduce_subsystem(composite_kraus(t, rates), SPLIT, qubit_state(a))
        b = result.b.values
        diag.append(np.abs(np.diag(b).real - closed_form_b(t, rates, a)))
        off.append(max_abs(b - np.diag(np.diag(b))))
    worst_diag, worst_off = np.max(diag), np.max(off)
    assert worst_diag < 1e-10
    assert worst_off < 1e-12
    report(2, "mixing-matrix diagonal vs closed form", worst_diag, 1e-10)
    report(2, "mixing-matrix off-diagonals", worst_off, 1e-12)


def test_criterion_03_trace_preservation():
    defects = []
    for rates, t, a in _tau_grid_cases():
        result = reduce_subsystem(composite_kraus(t, rates), SPLIT, qubit_state(a))
        total = sum(result.b.values[i, i].real for i in range(4))
        defects.append(abs(total / 2.0 - 1.0))
    worst = np.max(defects)
    assert worst < 1e-10
    report(3, "(b0+b1+b2+b3)/2 = 1 on the grid", worst, 1e-10)


def test_criterion_04_identity_limit():
    rates = DampingRates(0.3, 1.0)
    kmap = composite_kraus(0.0, rates)
    # scalar oracle at t = 0: the normalization constants give A = 0,
    # A' = 1/16, B = 8, so K8 = -I and every other operator vanishes
    for op in kmap.operators[:7]:
        assert max_abs(op) == 0.0
    assert max_abs(kmap.operators[7] + np.eye(4)) < 1e-14
    ident4 = KrausMap(4, (np.eye(4, dtype=complex),))
    d_comp = channel_distance(kmap, ident4)
    reduced = reduce_subsystem(kmap, SPLIT, qubit_state(0.5)).subsystem_map
    ident2 = KrausMap(2, (np.eye(2, dtype=complex),))
    d_red = channel_distance(reduced, ident2)
    assert d_comp < 1e-10 and d_red < 1e-10
    report(4, "identity channel at t = 0 (composite and reduced)", np.max([d_comp, d_red]), 1e-10)


def test_criterion_05_composite_completeness():
    rates = DampingRates(0.3, 1.0)
    total = rates.gamma1 + rates.gamma2
    worst = np.max([
        completeness_defect(composite_kraus(tau / total, rates)) for tau in np.linspace(0.0, 1.0, 50)
    ])
    assert worst < 1e-8
    report(5, "composite completeness over the grid (measured maximum)", worst, 1e-8)


def test_criterion_06_cp_verdicts():
    rates = DampingRates(0.3, 1.0)
    total = rates.gamma1 + rates.gamma2
    min_eigenvalues = [0.0]
    for tau in np.linspace(0.0, 1.0, 50):
        reduced = reduce_subsystem(
            composite_kraus(tau / total, rates), SPLIT, qubit_state(0.3)
        ).subsystem_map
        verdict = cp_verdict(choi_matrix(reduced))
        min_eigenvalues.append(verdict.min_eigenvalue)
        assert verdict.is_cp
    worst = np.min(min_eigenvalues)
    assert worst >= -1e-10
    swap = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            swap[i * 2 + j, j * 2 + i] = 1.0
    control = cp_verdict(ChoiMatrix(swap, 2))
    assert not control.is_cp
    assert abs(control.min_eigenvalue + 1.0) < 1e-12
    report(6, "reduced-map Choi minimum eigenvalue", worst, -1e-10, ">=")
    report(6, "transpose-map negative control", control.min_eigenvalue + 1.0, 1e-12)


def test_criterion_07_reduced_domain_cp():
    ensemble = SeparableEnsemble(
        (0.5, 0.5),
        ((qubit_state(1.0), qubit_state(1.0)), (qubit_state(0.0), qubit_state(0.0))),
    )
    equal = DampingRates(0.65, 0.65)
    t = 0.05 / (equal.gamma1 + equal.gamma2)
    branches = reduce_separable_ensemble(composite_kraus(t, equal), SPLIT, ensemble)
    verdict_equal = reduced_domain_verdict(branches, tol=1e-10)
    assert verdict_equal.uniform
    skew = DampingRates(0.3, 1.0)
    t = 0.05 / (skew.gamma1 + skew.gamma2)
    branches = reduce_separable_ensemble(composite_kraus(t, skew), SPLIT, ensemble)
    verdict_skew = reduced_domain_verdict(branches, tol=1e-10)
    assert not verdict_skew.uniform
    assert verdict_skew.max_pairwise_distance > 1e-3
    report(7, "uniform branches at equal rates", verdict_equal.max_pairwise_distance, 1e-10)
    report(7, "branch split at unequal rates", verdict_skew.max_pairwise_distance, 1e-3, ">")


def test_criterion_08_equal_marginal_probe():
    rates = DampingRates(0.3, 1.0)
    t = 0.1 / (rates.gamma1 + rates.gamma2)
    kmap = composite_kraus(t, rates)
    corr = np.zeros((4, 4), dtype=complex)
    corr[0, 0] = corr[3, 3] = 0.5
    gap = correlated_probe(kmap, SPLIT, DensityMatrix(corr), maximally_mixed(4))
    control = correlated_probe(kmap, SPLIT, maximally_mixed(4), maximally_mixed(4))
    assert gap > 1e-3
    assert control < 1e-12
    report(8, "correlated vs product equal-marginal pair", gap, 1e-3, ">")
    report(8, "product/product control", control, 1e-12)


def test_criterion_09_factorization():
    kmap = composite_kraus(0.2, DampingRates(0.3, 1.0))
    flags = factorization_check(c_coefficients(kmap, SPLIT, B2, B2), tol=1e-10)
    assert len(flags) == 8
    assert all(f.is_product for f in flags)
    worst = np.max([f.singular_ratio for f in flags])
    entangler = (
        tensor_product(SIGMA[1], np.eye(2)) + tensor_product(np.eye(2), SIGMA[1])
    ) / np.sqrt(2)
    control = factorization_check(
        c_coefficients(KrausMap(4, (entangler,), trace_preserving=False), SPLIT, B2, B2)
    )
    assert not control[0].is_product
    report(9, "all case-study operators rank one", worst, 1e-10)
    report(9, "entangling control rank two (ratio)", control[0].singular_ratio, 0.5, ">")


def test_criterion_10_structural_suite(tmp_path):
    rng = rng_from(1010)
    residuals = []
    for i in range(100):
        d = 2 + i % 8
        h = random_hermitian(rng, d)
        eig = hermitian_eig(h)
        recon = (eig.unitary * eig.eigenvalues) @ eig.unitary.conj().T
        gram = eig.unitary.conj().T @ eig.unitary
        residuals += [max_abs(recon - h), max_abs(gram - np.eye(d))]
    worst_eig = np.max(residuals)
    assert worst_eig < 1e-12

    residuals = []
    for d in (2, 3, 4):
        bas = build_hermitian_basis(d)
        stack = bas.stacked()
        gram = np.einsum("iab,jba->ij", stack, stack)
        residuals.append(max_abs(gram - np.eye(d * d)))
    worst_gram = np.max(residuals)
    assert worst_gram < 1e-12

    kmap = composite_kraus(0.11, DampingRates(0.3, 1.0))
    text = dump_map_json(kmap, label="acceptance")
    assert dump_map_json(load_map_json(text), label="acceptance") == text

    args = [
        "case-study", "--gamma1", "0.3", "--gamma2", "1.0", "--a", "0.3",
        "--t-max", "0.8", "--steps", "13",
    ]
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    report(10, "eigensolver reconstruction/unitarity (100 matrices)", worst_eig, 1e-12)
    report(10, "basis Gram identity d in {2,3,4}", worst_gram, 1e-12)
    print("criterion 10 PASS  MapFile round-trip byte-identical")
    print("criterion 10 PASS  sweep determinism byte-identical")


def test_criterion_01_choi_level_equivalence():
    # same statement as criterion 1 but for the whole channel, via a
    # basis-spanning set of inputs folded into the Choi comparison
    rng = rng_from(1011)
    residuals = []
    for _ in range(5):
        rates = DampingRates(float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.1, 2.0)))
        t = float(rng.uniform(0.1, 2.0))
        rho2 = qubit_state(float(rng.uniform(0.0, 1.0)))
        kmap = composite_kraus(t, rates)
        reduced = reduce_subsystem(kmap, SPLIT, rho2).subsystem_map
        from subkraus.channels import choi_of_any

        residuals.append(max_abs(choi_of_any(reduced) - brute_force_reduced_choi(kmap, SPLIT, rho2)))
    worst = np.max(residuals)
    assert worst < 1e-10
    report(1, "channel-level (spanning-set) equivalence", worst, 1e-10)
