"""Self-verification suites behind the ``verify`` CLI command.

Structural checks exercise the exact linear-algebra contracts at 1e-12 and
run in well under a second; model checks sweep the two-qubit model and its
closed forms at their stated tolerances and log the measured residuals.
Each check reports the worst residual it saw, so a failing run shows how
far off it was, not just that it failed; a check that raises fails alone.
The test suite shares the random builders and the brute-force oracle here.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import basis, casestudy, channels, linalg, reduction


@dataclass(frozen=True)
class CheckResult:
    name: str
    scope: str
    passed: bool
    measured: float
    bound: float
    note: str = ""


def random_complex(rng, d: int) -> np.ndarray:
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def random_hermitian(rng, d: int) -> np.ndarray:
    m = random_complex(rng, d)
    return (m + m.conj().T) / 2


def random_tp_kraus(rng, d: int, n: int) -> channels.KrausMap:
    """Random trace-preserving map: raw operators right-normalized by the
    inverse square root of their completeness sum (through numpy's ``eigh``,
    not the package's eigensolver)."""
    ops = [random_complex(rng, d) for _ in range(n)]
    s = sum(op.conj().T @ op for op in ops)
    w, v = np.linalg.eigh(s)
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    return channels.KrausMap(d, tuple(op @ inv_sqrt for op in ops), trace_preserving=True)


def brute_force_reduced_choi(
    kmap: channels.KrausMap,
    split: reduction.Bipartition,
    rho_other: channels.DensityMatrix,
    keep: int = 1,
) -> np.ndarray:
    """Choi matrix of the reduced channel, from direct composite evolution:
    rho -> tr_other(Phi(rho (x) rho_other)) for ``keep=1``, the mirror image
    for ``keep=2``."""
    d_keep = split.d1 if keep == 1 else split.d2
    out = np.zeros((d_keep * d_keep, d_keep * d_keep), dtype=complex)
    for a in range(d_keep):
        for b in range(d_keep):
            unit = np.zeros((d_keep, d_keep), dtype=complex)
            unit[a, b] = 1.0
            pair = (unit, rho_other.matrix) if keep == 1 else (rho_other.matrix, unit)
            evolved = channels.apply_matrix(kmap, linalg.tensor_product(*pair))
            block = linalg.partial_trace(evolved, split.d1, split.d2, keep=keep)
            out[a * d_keep : (a + 1) * d_keep, b * d_keep : (b + 1) * d_keep] = block
    return out


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

def check_eigensolver(seed: int = 11) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(100):
        d = 2 + i % 8
        h = random_hermitian(rng, d)
        eig = linalg.hermitian_eig(h)
        recon = (eig.unitary * eig.eigenvalues) @ eig.unitary.conj().T
        unit = eig.unitary.conj().T @ eig.unitary
        worst = max(
            worst,
            linalg.max_abs(recon - h),
            linalg.max_abs(unit - np.eye(d)),
        )
    return CheckResult("eigensolver reconstruction/unitarity", "structural", worst < 1e-12, worst, 1e-12)


def check_tensor_algebra(seed: int = 12) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        a, b, c, d = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(4))
        lhs = linalg.tensor_product(a, b) @ linalg.tensor_product(c, d)
        rhs = linalg.tensor_product(a @ c, b @ d)
        worst = max(worst, linalg.max_abs(lhs - rhs))
        assoc = linalg.tensor_product(linalg.tensor_product(a, b), c) - linalg.tensor_product(
            a, linalg.tensor_product(b, c)
        )
        worst = max(worst, linalg.max_abs(assoc))
    return CheckResult("tensor product algebra", "structural", worst < 1e-12, worst, 1e-12)


def check_partial_trace(seed: int = 13) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        t1 = np.trace(linalg.partial_trace(m, 2, 3, keep=1))
        t2 = np.trace(linalg.partial_trace(m, 2, 3, keep=2))
        worst = max(worst, abs(t1 - np.trace(m)), abs(t2 - np.trace(m)))
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rec = linalg.partial_trace(linalg.tensor_product(a, b), 2, 3, keep=1)
        worst = max(worst, linalg.max_abs(rec - a * np.trace(b)))
    return CheckResult("partial trace identities", "structural", worst < 1e-12, worst, 1e-12)


def check_evolution_unitarity(seed: int = 14) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(10):
        h = random_hermitian(rng, 4)
        t = rng.uniform(-2, 2)
        u = linalg.evolution_unitary(h, t)
        worst = max(worst, linalg.max_abs(u @ linalg.evolution_unitary(h, -t) - np.eye(4)))
        worst = max(worst, linalg.max_abs(u.conj().T @ u - np.eye(4)))
    return CheckResult("evolution unitarity", "structural", worst < 1e-12, worst, 1e-12)


def check_basis_gram() -> CheckResult:
    worst = 0.0
    for d in (2, 3, 4):
        bas = basis.build_hermitian_basis(d)
        stack = bas.stacked()
        gram = np.einsum("iab,jba->ij", stack, stack)
        worst = max(worst, linalg.max_abs(gram - np.eye(d * d)))
    return CheckResult("basis Gram identity (d=2,3,4)", "structural", worst < 1e-12, worst, 1e-12)


def check_basis_roundtrip(seed: int = 15) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for d in (2, 3):
        bas = basis.build_hermitian_basis(d)
        for _ in range(10):
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            coeffs = basis.expand(m, bas)
            worst = max(worst, linalg.max_abs(basis.reconstruct(coeffs, bas) - m))
            parseval = abs(
                float((np.abs(coeffs) ** 2).sum()) - float(np.trace(m.conj().T @ m).real)
            )
            worst = max(worst, parseval)
    return CheckResult("basis expand/reconstruct + Parseval", "structural", worst < 1e-12, worst, 1e-12)


def check_choi_landmarks() -> CheckResult:
    ident = channels.KrausMap(2, (np.eye(2, dtype=complex),))
    choi = channels.choi_matrix(ident)
    expected = np.zeros((4, 4), dtype=complex)
    for i, j in ((0, 0), (0, 3), (3, 0), (3, 3)):
        expected[i, j] = 1.0
    worst = linalg.max_abs(choi.matrix - expected)
    swap = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            swap[a * 2 + b, b * 2 + a] = 1.0
    verdict = channels.cp_verdict(channels.ChoiMatrix(swap, 2))
    worst = max(worst, abs(verdict.min_eigenvalue + 1.0))
    ok = worst < 1e-12 and not verdict.is_cp
    return CheckResult("Choi landmarks + transpose control", "structural", ok, worst, 1e-12)


def check_distance_gauge(seed: int = 16) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(10):
        kmap = random_tp_kraus(rng, 2, 2)
        raw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        mix, _ = np.linalg.qr(raw)
        mixed_ops = tuple(
            sum(mix[p, q] * kmap.operators[q] for q in range(2)) for p in range(2)
        )
        mixed = channels.KrausMap(2, mixed_ops, trace_preserving=True)
        worst = max(worst, channels.channel_distance(kmap, mixed))
    sz_map = channels.KrausMap(2, (np.diag([1, -1]).astype(complex),))
    ident = channels.KrausMap(2, (np.eye(2, dtype=complex),))
    worst_lm = abs(channels.channel_distance(ident, sz_map) - np.sqrt(8))
    ok = worst < 1e-10 and worst_lm < 1e-12
    return CheckResult("channel distance gauge invariance", "structural", ok, max(worst, worst_lm), 1e-10)


def check_mapfile_roundtrip(seed: int = 17) -> CheckResult:
    rng = np.random.default_rng(seed)
    kmap = random_tp_kraus(rng, 2, 3)
    text1 = channels.dump_map_json(kmap, label="roundtrip")
    loaded = channels.load_map_json(text1)
    text2 = channels.dump_map_json(loaded, label="roundtrip")
    ok = text1 == text2
    return CheckResult("MapFile round-trip byte identity", "structural", ok, 0.0 if ok else 1.0, 0.0)


# ---------------------------------------------------------------------------
# model checks
# ---------------------------------------------------------------------------

_GRID_RATES = casestudy.DampingRates(0.7, 0.4)


def _grid_times(points: int) -> np.ndarray:
    """Times tau / (gamma1 + gamma2) for tau on [0, 1]."""
    return np.linspace(0.0, 1.0, points) / (_GRID_RATES.gamma1 + _GRID_RATES.gamma2)


def check_composite_completeness() -> CheckResult:
    stacks = casestudy.composite_kraus_grid(_grid_times(100), _GRID_RATES)
    worst = float(channels.completeness_defect(stacks).max())
    return CheckResult("composite completeness over tau grid", "model", worst < 1e-8, worst, 1e-8)


def check_algorithm_vs_closed_form() -> CheckResult:
    rates = _GRID_RATES
    split = reduction.Bipartition(2, 2)
    ts = _grid_times(25)
    stacks = casestudy.composite_kraus_grid(ts, rates)
    worst_b = 0.0
    worst_off = 0.0
    worst_dist = 0.0
    for a in (0.0, 0.3, 1.0):
        grid = reduction.reduce_subsystem_grid(stacks, split, casestudy.qubit_state(a))
        diag = np.diagonal(grid.b, axis1=-2, axis2=-1).real
        worst_off = max(worst_off, linalg.max_abs(grid.b - diag[..., None] * np.eye(4)))
        for t, b, ops in zip(ts, diag, grid.operators):
            worst_b = max(worst_b, np.abs(b - casestudy.closed_form_b(t, rates, a)).max())
            closed = casestudy.closed_form_subsystem_map(t, rates, a)
            worst_dist = max(
                worst_dist, channels.channel_distance(channels.KrausMap(2, ops), closed)
            )
    passed = worst_b < 1e-10 and worst_off < 1e-12 and worst_dist < 1e-10
    note = f"offdiag={worst_off:.2e} dist={worst_dist:.2e}"
    return CheckResult("reduction matches closed forms", "model", passed, worst_b, 1e-10, note)


def check_identity_limit() -> CheckResult:
    rates = _GRID_RATES
    kmap = casestudy.composite_kraus(0.0, rates)
    ident4 = channels.KrausMap(4, (np.eye(4, dtype=complex),))
    d_comp = channels.channel_distance(kmap, ident4)
    result = reduction.reduce_subsystem(
        kmap, reduction.Bipartition(2, 2), casestudy.qubit_state(0.4)
    )
    ident2 = channels.KrausMap(2, (np.eye(2, dtype=complex),))
    d_red = channels.channel_distance(result.subsystem_map, ident2)
    worst = max(d_comp, d_red)
    return CheckResult("identity channel at t = 0", "model", worst < 1e-10, worst, 1e-10)


def check_reduced_cp_on_grid() -> CheckResult:
    stacks = casestudy.composite_kraus_grid(_grid_times(25), _GRID_RATES)
    grid = reduction.reduce_subsystem_grid(
        stacks, reduction.Bipartition(2, 2), casestudy.qubit_state(0.3)
    )
    verdict = channels.cp_verdict(channels.choi_matrix(grid.operators))
    worst = min(0.0, float(verdict.min_eigenvalue.min()))
    return CheckResult("reduced map CP on grid", "model", worst >= -1e-10, worst, -1e-10)


def check_oracle_equivalence(seed: int = 21) -> CheckResult:
    rng = np.random.default_rng(seed)
    split = reduction.Bipartition(2, 2)
    worst = 0.0
    for _ in range(10):
        rates = casestudy.DampingRates(rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0))
        t = rng.uniform(0.1, 2.0)
        a = rng.uniform(0.0, 1.0)
        rho2 = casestudy.qubit_state(a)
        kmap = casestudy.composite_kraus(t, rates)
        result = reduction.reduce_subsystem(kmap, split, rho2)
        brute = brute_force_reduced_choi(kmap, split, rho2)
        algo = channels.choi_of_any(result.subsystem_map)
        worst = max(worst, linalg.max_abs(brute - algo))
    return CheckResult("reduction equals brute-force channel", "model", worst < 1e-10, worst, 1e-10)


def check_reduced_domain() -> CheckResult:
    split = reduction.Bipartition(2, 2)
    plus = casestudy.qubit_state(1.0)
    minus = casestudy.qubit_state(0.0)
    ensemble = reduction.SeparableEnsemble(
        (0.5, 0.5), ((plus, plus), (minus, minus))
    )
    equal_rates = casestudy.DampingRates(0.6, 0.6)
    t = 0.05 / 1.2
    branches = reduction.reduce_separable_ensemble(
        casestudy.composite_kraus(t, equal_rates), split, ensemble
    )
    uniform = reduction.reduced_domain_verdict(branches)
    skew_rates = casestudy.DampingRates(0.3, 1.0)
    t = 0.05 / 1.3
    branches = reduction.reduce_separable_ensemble(
        casestudy.composite_kraus(t, skew_rates), split, ensemble
    )
    split_verdict = reduction.reduced_domain_verdict(branches)
    ok = (
        uniform.uniform
        and uniform.max_pairwise_distance < 1e-10
        and not split_verdict.uniform
        and split_verdict.max_pairwise_distance > 1e-3
    )
    note = f"nonuniform distance={split_verdict.max_pairwise_distance:.3e}"
    return CheckResult("reduced-domain verdicts", "model", ok, uniform.max_pairwise_distance, 1e-10, note)


def check_probe() -> CheckResult:
    split = reduction.Bipartition(2, 2)
    rates = casestudy.DampingRates(0.3, 1.0)
    t = 0.1 / 1.3
    kmap = casestudy.composite_kraus(t, rates)
    corr = np.zeros((4, 4), dtype=complex)
    corr[0, 0] = corr[3, 3] = 0.5
    correlated = channels.DensityMatrix(corr)
    product = channels.DensityMatrix(np.eye(4, dtype=complex) / 4)
    gap = reduction.correlated_probe(kmap, split, correlated, product)
    control = reduction.correlated_probe(kmap, split, product, product)
    ok = gap > 1e-3 and control < 1e-12
    return CheckResult("equal-marginal probe", "model", ok, gap, 1e-3, f"control={control:.1e}")


def check_factorization() -> CheckResult:
    split = reduction.Bipartition(2, 2)
    b2 = basis.build_hermitian_basis(2)
    rates = casestudy.DampingRates(0.3, 1.0)
    kmap = casestudy.composite_kraus(0.2, rates)
    coeffs = reduction.c_coefficients(kmap, split, b2, b2)
    flags = reduction.factorization_check(coeffs)
    all_product = all(f.is_product for f in flags)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    entangler = (
        linalg.tensor_product(sx, np.eye(2)) + linalg.tensor_product(np.eye(2), sx)
    ) / np.sqrt(2)
    nonfac = channels.KrausMap(4, (entangler,), trace_preserving=False)
    flags2 = reduction.factorization_check(
        reduction.c_coefficients(nonfac, split, b2, b2)
    )
    ok = all_product and not flags2[0].is_product
    worst = max(f.singular_ratio for f in flags)
    return CheckResult("tensor-product factorization", "model", ok, worst, 1e-10)


def check_sweep_determinism() -> CheckResult:
    from . import cli

    with tempfile.TemporaryDirectory() as tmp:
        out1 = Path(tmp) / "sweep1.csv"
        out2 = Path(tmp) / "sweep2.csv"
        args = [
            "case-study", "--gamma1", "0.7", "--gamma2", "0.4", "--a", "0.3",
            "--t-max", "0.5", "--steps", "21",
        ]
        code1 = cli.main(args + ["--out", str(out1)])
        code2 = cli.main(args + ["--out", str(out2)])
        ok = code1 == 0 and code2 == 0 and out1.read_bytes() == out2.read_bytes()
    return CheckResult("sweep determinism byte identity", "model", ok, 0.0 if ok else 1.0, 0.0)


_STRUCTURAL: tuple[Callable[[], CheckResult], ...] = (
    check_eigensolver,
    check_tensor_algebra,
    check_partial_trace,
    check_evolution_unitarity,
    check_basis_gram,
    check_basis_roundtrip,
    check_choi_landmarks,
    check_distance_gauge,
    check_mapfile_roundtrip,
)

_MODEL: tuple[Callable[[], CheckResult], ...] = (
    check_composite_completeness,
    check_algorithm_vs_closed_form,
    check_identity_limit,
    check_reduced_cp_on_grid,
    check_oracle_equivalence,
    check_reduced_domain,
    check_probe,
    check_factorization,
    check_sweep_determinism,
)


def _run(check: Callable[[], CheckResult], scope: str) -> CheckResult:
    """The check's result; a check that raises is a failed result named
    after the function, with the exception as its note."""
    try:
        return check()
    except Exception as exc:
        note = f"raised {type(exc).__name__}: {exc}"
        return CheckResult(check.__name__, scope, False, math.nan, math.nan, note)


def run_checks(scope: str = "all") -> list[CheckResult]:
    """Run every check of ``scope``, structural before model; each check
    runs even when an earlier one failed or raised."""
    groups = {"structural": _STRUCTURAL, "model": _MODEL}
    if scope not in ("all", *groups):
        raise ValueError(f"unknown scope {scope!r}; use structural, model, or all")
    return [_run(f, s) for s, funcs in groups.items() if scope in ("all", s) for f in funcs]
