"""Self-verification suites behind the ``verify`` CLI command.

Structural checks exercise the exact linear-algebra contracts at 1e-12 and
run in well under a second; model checks sweep the two-qubit model and its
closed forms at their stated tolerances and log the measured residuals.
Each check reports the worst residual it saw, so a failing run shows how
far off it was, not just that it failed; a NaN residual fails its check, and
a check that raises fails alone.
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


def _verdict(name: str, scope: str, residuals, bound: float, holds=True, note="") -> CheckResult:
    """The result of a check that measured ``residuals``: it passes when the
    worst of them is within ``bound`` and ``holds``; a NaN residual fails."""
    measured = float(np.max(residuals))
    return CheckResult(name, scope, bool(measured <= bound and holds), measured, bound, note)


def random_complex(rng, d: int) -> np.ndarray:
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def random_hermitian(rng, d: int) -> np.ndarray:
    m = random_complex(rng, d)
    return (m + m.conj().T) / 2


def random_density(rng, d: int) -> channels.DensityMatrix:
    """Random full-rank state with complex entries, A A^dagger / tr."""
    m = random_complex(rng, d)
    rho = m @ m.conj().T
    return channels.DensityMatrix(rho / np.trace(rho).real)


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
    residuals = []
    for i in range(100):
        d = 2 + i % 8
        h = random_hermitian(rng, d)
        eig = linalg.hermitian_eig(h)
        recon = (eig.unitary * eig.eigenvalues) @ eig.unitary.conj().T
        unit = eig.unitary.conj().T @ eig.unitary
        residuals += [linalg.max_abs(recon - h), linalg.max_abs(unit - np.eye(d))]
    return _verdict("eigensolver reconstruction/unitarity", "structural", residuals, 1e-12)


def check_tensor_algebra(seed: int = 12) -> CheckResult:
    rng = np.random.default_rng(seed)
    residuals = []
    for _ in range(20):
        a, b, c, d = (random_complex(rng, 2) for _ in range(4))
        lhs = linalg.tensor_product(a, b) @ linalg.tensor_product(c, d)
        rhs = linalg.tensor_product(a @ c, b @ d)
        assoc = linalg.tensor_product(linalg.tensor_product(a, b), c) - linalg.tensor_product(
            a, linalg.tensor_product(b, c)
        )
        residuals += [linalg.max_abs(lhs - rhs), linalg.max_abs(assoc)]
    return _verdict("tensor product algebra", "structural", residuals, 1e-12)


def check_partial_trace(seed: int = 13) -> CheckResult:
    rng = np.random.default_rng(seed)
    residuals = []
    for _ in range(20):
        m = random_complex(rng, 6)
        t1 = np.trace(linalg.partial_trace(m, 2, 3, keep=1))
        t2 = np.trace(linalg.partial_trace(m, 2, 3, keep=2))
        a, b = random_complex(rng, 2), random_complex(rng, 3)
        rec = linalg.partial_trace(linalg.tensor_product(a, b), 2, 3, keep=1)
        residuals += [abs(t1 - np.trace(m)), abs(t2 - np.trace(m)), linalg.max_abs(rec - a * np.trace(b))]
    return _verdict("partial trace identities", "structural", residuals, 1e-12)


def check_evolution_unitarity(seed: int = 14) -> CheckResult:
    rng = np.random.default_rng(seed)
    residuals = []
    for _ in range(10):
        h = random_hermitian(rng, 4)
        t = rng.uniform(-2, 2)
        u = linalg.evolution_unitary(h, t)
        residuals += [
            linalg.max_abs(u @ linalg.evolution_unitary(h, -t) - np.eye(4)),
            linalg.max_abs(u.conj().T @ u - np.eye(4)),
        ]
    return _verdict("evolution unitarity", "structural", residuals, 1e-12)


def check_basis_gram() -> CheckResult:
    residuals = []
    for d in (2, 3, 4):
        stack = basis.build_hermitian_basis(d).stacked()
        gram = np.einsum("iab,jba->ij", stack, stack)
        residuals.append(linalg.max_abs(gram - np.eye(d * d)))
    return _verdict("basis Gram identity (d=2,3,4)", "structural", residuals, 1e-12)


def check_basis_roundtrip(seed: int = 15) -> CheckResult:
    rng = np.random.default_rng(seed)
    residuals = []
    for d in (2, 3):
        bas = basis.build_hermitian_basis(d)
        for _ in range(10):
            m = random_complex(rng, d)
            coeffs = basis.expand(m, bas)
            parseval = abs(float((np.abs(coeffs) ** 2).sum()) - float(np.trace(m.conj().T @ m).real))
            residuals += [linalg.max_abs(basis.reconstruct(coeffs, bas) - m), parseval]
    return _verdict("basis expand/reconstruct + Parseval", "structural", residuals, 1e-12)


def check_choi_landmarks() -> CheckResult:
    ident = channels.KrausMap(2, (np.eye(2, dtype=complex),))
    choi = channels.choi_matrix(ident)
    expected = np.outer([1, 0, 0, 1], [1, 0, 0, 1])  # |I>><<I|
    swap = np.eye(4, dtype=complex)[[0, 2, 1, 3]]  # |ab> -> |ba>, the transpose map's Choi
    verdict = channels.cp_verdict(channels.ChoiMatrix(swap, 2))
    residuals = [linalg.max_abs(choi.matrix - expected), abs(verdict.min_eigenvalue + 1.0)]
    name = "Choi landmarks + transpose control"
    return _verdict(name, "structural", residuals, 1e-12, holds=not verdict.is_cp)


def check_distance_gauge(seed: int = 16) -> CheckResult:
    rng = np.random.default_rng(seed)
    residuals = []
    for _ in range(10):
        kmap = random_tp_kraus(rng, 2, 2)
        mix, _ = np.linalg.qr(random_complex(rng, 2))
        mixed_ops = tuple(
            sum(mix[p, q] * kmap.operators[q] for q in range(2)) for p in range(2)
        )
        mixed = channels.KrausMap(2, mixed_ops, trace_preserving=True)
        residuals.append(channels.channel_distance(kmap, mixed))
    sz_map = channels.KrausMap(2, (np.diag([1, -1]).astype(complex),))
    ident = channels.KrausMap(2, (np.eye(2, dtype=complex),))
    landmark = abs(channels.channel_distance(ident, sz_map) - np.sqrt(8))
    name = "channel distance gauge invariance"
    return _verdict(name, "structural", [*residuals, landmark], 1e-10, holds=landmark <= 1e-12)


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
_SPLIT = reduction.Bipartition(2, 2)


def _grid_times(points: int) -> np.ndarray:
    """Times tau / (gamma1 + gamma2) for tau on [0, 1]."""
    return np.linspace(0.0, 1.0, points) / (_GRID_RATES.gamma1 + _GRID_RATES.gamma2)


def check_composite_completeness() -> CheckResult:
    stacks = casestudy.composite_kraus_grid(_grid_times(100), _GRID_RATES)
    defects = channels.completeness_defect(stacks)
    return _verdict("composite completeness over tau grid", "model", defects, 1e-8)


def _sweep(ts, rates: casestudy.DampingRates, a: float):
    """The qubit-1 grid reduction of the two-qubit model on ``ts`` and its
    case-study table, keyed by column name."""
    stacks = casestudy.composite_kraus_grid(ts, rates)
    grid = reduction.reduce_subsystem_grid(stacks, _SPLIT, casestudy.qubit_state(a))
    table = casestudy.sweep_table(ts, grid)
    return grid, dict(zip(casestudy.SWEEP_HEADER.split(","), table.T))


def closed_form_residuals(ts, rates: casestudy.DampingRates, a: float):
    """Deviations of the qubit-1 grid reduction of the two-qubit model from
    its closed forms at each time of ``ts``: three (T,) arrays holding
    max |b_ii - closed_form_b|, the largest off-diagonal entry of ``b``, and
    the channel distance to ``closed_form_subsystem_map``."""
    grid, columns = _sweep(ts, rates, a)
    diag = np.column_stack([columns[f"b{i}"] for i in range(4)])
    closed = np.array([casestudy.closed_form_b(t, rates, a) for t in ts])
    closed_ops = np.array([casestudy.closed_form_subsystem_map(t, rates, a).stacked() for t in ts])
    dist = channels.choi_distance(
        channels.choi_of_any(grid.operators), channels.choi_of_any(closed_ops)
    )
    return np.abs(diag - closed).max(axis=-1), columns["offdiag_B_max"], dist


def check_algorithm_vs_closed_form() -> CheckResult:
    ts = _grid_times(25)
    per_a = [closed_form_residuals(ts, _GRID_RATES, a) for a in (0.0, 0.3, 1.0)]
    b, offdiag, dist = (float(np.max(r)) for r in zip(*per_a))
    return _verdict(
        "reduction matches closed forms", "model", b, 1e-10,
        holds=offdiag <= 1e-12 and dist <= 1e-10, note=f"offdiag={offdiag:.2e} dist={dist:.2e}",
    )


def check_identity_limit() -> CheckResult:
    kmap = casestudy.composite_kraus(0.0, _GRID_RATES)
    ident4 = channels.KrausMap(4, (np.eye(4, dtype=complex),))
    d_comp = channels.channel_distance(kmap, ident4)
    result = reduction.reduce_subsystem(kmap, _SPLIT, casestudy.qubit_state(0.4))
    ident2 = channels.KrausMap(2, (np.eye(2, dtype=complex),))
    d_red = channels.channel_distance(result.subsystem_map, ident2)
    return _verdict("identity channel at t = 0", "model", [d_comp, d_red], 1e-10)


def check_reduced_cp_on_grid() -> CheckResult:
    _, columns = _sweep(_grid_times(25), _GRID_RATES, 0.3)
    # a lower bound, so no _verdict; np.min keeps a NaN, which fails the gate
    worst = float(np.min(columns["choi_min_eig"], initial=0.0))
    floor = -1e-10
    return CheckResult("reduced map CP on grid", "model", bool(worst >= floor), worst, floor)


def check_oracle_equivalence(seed: int = 21) -> CheckResult:
    rng = np.random.default_rng(seed)
    cases = []  # (map, split, traced-out state, keep)
    for _ in range(10):
        rates = casestudy.DampingRates(rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0))
        t = rng.uniform(0.1, 2.0)
        a = rng.uniform(0.0, 1.0)
        cases.append((casestudy.composite_kraus(t, rates), _SPLIT, casestudy.qubit_state(a), 1))
    # the model's maps and states are real; generic ones also see a transposed state
    for split in (_SPLIT, reduction.Bipartition(2, 3)):
        for keep in (1, 2):
            traced = random_density(rng, split.d2 if keep == 1 else split.d1)
            cases.append((random_tp_kraus(rng, split.dim, 3), split, traced, keep))
    residuals = []
    for kmap, split, traced, keep in cases:
        result = reduction.reduce_subsystem(kmap, split, traced, keep=keep)
        brute = brute_force_reduced_choi(kmap, split, traced, keep=keep)
        residuals.append(linalg.max_abs(brute - channels.choi_of_any(result.subsystem_map)))
    return _verdict("reduction equals brute-force channel", "model", residuals, 1e-10)


def check_reduced_domain() -> CheckResult:
    plus = casestudy.qubit_state(1.0)
    minus = casestudy.qubit_state(0.0)
    ensemble = reduction.SeparableEnsemble((0.5, 0.5), ((plus, plus), (minus, minus)))
    # at tau = 0.05, equal rates give uniform branches and unequal ones split them
    verdicts = []
    for rates in (casestudy.DampingRates(0.6, 0.6), casestudy.DampingRates(0.3, 1.0)):
        kmap = casestudy.composite_kraus(0.05 / (rates.gamma1 + rates.gamma2), rates)
        branches = reduction.reduce_separable_ensemble(kmap, _SPLIT, ensemble)
        verdicts.append(reduction.reduced_domain_verdict(branches))
    uniform, split_verdict = verdicts
    holds = uniform.uniform and not split_verdict.uniform and split_verdict.max_pairwise_distance > 1e-3
    note = f"nonuniform distance={split_verdict.max_pairwise_distance:.3e}"
    return _verdict("reduced-domain verdicts", "model", uniform.max_pairwise_distance, 1e-10, holds, note)


def check_probe() -> CheckResult:
    kmap = casestudy.composite_kraus(0.1 / 1.3, casestudy.DampingRates(0.3, 1.0))
    corr = np.zeros((4, 4), dtype=complex)
    corr[0, 0] = corr[3, 3] = 0.5
    correlated = channels.DensityMatrix(corr)
    product = channels.DensityMatrix(np.eye(4, dtype=complex) / 4)
    gap = reduction.correlated_probe(kmap, _SPLIT, correlated, product)
    control = reduction.correlated_probe(kmap, _SPLIT, product, product)
    # a lower bound on the gap, so no _verdict; both comparisons fail on NaN
    ok = bool(gap > 1e-3 and control < 1e-12)
    return CheckResult("equal-marginal probe", "model", ok, gap, 1e-3, f"control={control:.1e}")


def check_factorization() -> CheckResult:
    b2 = basis.build_hermitian_basis(2)
    kmap = casestudy.composite_kraus(0.2, casestudy.DampingRates(0.3, 1.0))
    flags = reduction.factorization_check(reduction.c_coefficients(kmap, _SPLIT, b2, b2))
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    entangler = (
        linalg.tensor_product(sx, np.eye(2)) + linalg.tensor_product(np.eye(2), sx)
    ) / np.sqrt(2)
    nonfac = channels.KrausMap(4, (entangler,), trace_preserving=False)
    flags2 = reduction.factorization_check(
        reduction.c_coefficients(nonfac, _SPLIT, b2, b2)
    )
    holds = all(f.is_product for f in flags) and not flags2[0].is_product
    ratios = [f.singular_ratio for f in flags]
    return _verdict("tensor-product factorization", "model", ratios, 1e-10, holds)


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
