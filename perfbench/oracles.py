"""Independent oracles for every benchmark operation, with negative controls.

No function here calls the package under test: expected values come from
brute-force channel evolution in plain numpy and from a transcription of
the paper's closed-form mixing matrix. Every gate is written as
``not (x <= tol)`` so that a NaN fails it. A check raises ``Mismatch``;
returning normally means the output is correct.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

import inputs

REDUCTION_TOL = 1e-10
B_DIAG_TOL = 1e-10
B_OFFDIAG_TOL = 1e-12
TRACE_DEFECT_TOL = 1e-10
CP_FLOOR = -1e-10
NONUNIFORM_FLOOR = 1e-3
SWEEP_HEADER = "t,b0,b1,b2,b3,trace_defect,choi_min_eig,offdiag_B_max"


class Mismatch(Exception):
    """An output disagrees with its oracle."""


def at_most(name: str, value: float, tol: float) -> None:
    if not (value <= tol):
        raise Mismatch(f"{name} = {value!r}, allowed at most {tol:g}")


def at_least(name: str, value: float, floor: float) -> None:
    if not (value >= floor):
        raise Mismatch(f"{name} = {value!r}, required at least {floor:g}")


def holds(name: str, condition: bool) -> None:
    if not condition:
        raise Mismatch(f"{name} does not hold")


def max_abs(m) -> float:
    return float(np.abs(m).max())


# ---------------------------------------------------------------------------
# channel arithmetic in plain numpy
# ---------------------------------------------------------------------------

def apply(ops: np.ndarray, x: np.ndarray) -> np.ndarray:
    return (ops @ x @ ops.conj().transpose(0, 2, 1)).sum(axis=0)


def partial_trace(m: np.ndarray, d1: int, d2: int, keep: int) -> np.ndarray:
    blocks = m.reshape(d1, d2, d1, d2)
    return np.einsum("ikjk->ij", blocks) if keep == 1 else np.einsum("ikil->kl", blocks)


def choi(ops: np.ndarray) -> np.ndarray:
    """sum_k vec(K_k) vec(K_k)^dagger with column-stacking vec; block (a, b) is Phi(|a><b|)."""
    v = np.asarray(ops).transpose(0, 2, 1).reshape(len(ops), -1)
    return v.T @ v.conj()


def reduced_choi(ops: np.ndarray, d1: int, d2: int, rho_other: np.ndarray, keep: int) -> np.ndarray:
    """Choi_ab = tr_other Phi(|a><b| (x) rho_other), by evolving every matrix unit."""
    dk = d1 if keep == 1 else d2
    out = np.zeros((dk * dk, dk * dk), dtype=complex)
    for a in range(dk):
        for b in range(dk):
            unit = np.zeros((dk, dk), dtype=complex)
            unit[a, b] = 1.0
            x = np.kron(unit, rho_other) if keep == 1 else np.kron(rho_other, unit)
            out[a * dk:(a + 1) * dk, b * dk:(b + 1) * dk] = partial_trace(apply(ops, x), d1, d2, keep)
    return out


def kraus_from_choi(c: np.ndarray) -> np.ndarray:
    """A Kraus set of the channel with Choi matrix c (inverse of :func:`choi`)."""
    d = math.isqrt(c.shape[0])
    w, u = np.linalg.eigh(c)
    keep = w > 1e-14 * max(w[-1], 1.0)
    return np.stack([np.sqrt(w[p]) * u[:, p].reshape(d, d).T for p in np.flatnonzero(keep)])


def schmidt_ratio(op: np.ndarray, d1: int, d2: int) -> float:
    """Second over largest operator-Schmidt coefficient; zero exactly for product operators."""
    r = op.reshape(d1, d2, d1, d2).transpose(0, 2, 1, 3).reshape(d1 * d1, d2 * d2)
    s = np.linalg.svd(r, compute_uv=False)
    return 0.0 if s[0] == 0.0 else float(s[1] / s[0])


def paper_b(t: float, gamma1: float, gamma2: float, a: float) -> tuple[float, float, float, float]:
    """The paper's closed-form mixing-matrix diagonal for the qubit-1 reduction."""
    x1 = math.exp(-16.0 * gamma1 * t)
    x2 = math.exp(-16.0 * gamma2 * t)
    b0 = 0.5 + (1.0 - a) / 2.0 * x2 ** 2 + a / 2.0 * x1 ** 2 + (1.0 - a) * x2 + a * x1
    b1 = 0.5 - (1.0 - a) / 2.0 * x2 ** 2 - a / 2.0 * x1 ** 2
    b3 = (1.0 - a) / 2.0 * (1.0 - x2) ** 2 + a / 2.0 * (1.0 - x1) ** 2
    return b0, b1, b1, b3


_PAULI = np.array([
    [[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]],
], dtype=complex)


def paper_choi(t: float, gamma1: float, gamma2: float, a: float) -> np.ndarray:
    """Choi matrix of the closed-form reduced Pauli channel, operators sqrt(b_i/2) sigma_i."""
    weights = np.sqrt(np.array(paper_b(t, gamma1, gamma2, a)) / 2.0)
    return choi(weights[:, None, None] * _PAULI)


def parse_matrix(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)


# ---------------------------------------------------------------------------
# per-operation checks
# ---------------------------------------------------------------------------

def check_reduction(ops, d1, d2, rho_other, keep, out_ops, min_eigenvalue=None, is_cp=None) -> None:
    """Reduced map against brute force; optionally the CP verdict on its Choi matrix."""
    expected = reduced_choi(ops, d1, d2, rho_other, keep)
    at_most("reduced Choi error", max_abs(choi(out_ops) - expected), REDUCTION_TOL)
    if min_eigenvalue is not None:
        lowest = float(np.linalg.eigvalsh(expected)[0])
        at_most("CP minimum eigenvalue error", abs(min_eigenvalue - lowest), REDUCTION_TOL)
        holds("CP verdict of a CPTP map", bool(is_cp))


def check_sweep(text: str, p: dict, steps: int) -> None:
    """A case-study CSV against the paper's closed form at every grid point."""
    holds("CSV ends with a newline", text.endswith("\n"))
    lines = text.splitlines()
    holds("CSV header", lines[0] == SWEEP_HEADER)
    holds("CSV row count", len(lines) == steps + 1)
    for step, line in enumerate(lines[1:]):
        row = [float(x) for x in line.split(",")]
        holds("CSV column count", len(row) == 8)
        t = p["t_max"] * step / (steps - 1)
        at_most("t grid error", abs(row[0] - t), 1e-12)
        for i, b in enumerate(paper_b(t, p["gamma1"], p["gamma2"], p["a"])):
            at_most(f"b{i} error at t={t}", abs(row[1 + i] - b), B_DIAG_TOL)
        at_most("trace_defect", row[5], TRACE_DEFECT_TOL)
        at_least("choi_min_eig", row[6], CP_FLOOR)
        at_most("offdiag_B_max", row[7], B_OFFDIAG_TOL)


@dataclass(frozen=True)
class DomainCase:
    """One correlated-preparation diagnosis and its known answers.

    ``kind`` is product, entangling, paper_equal or paper_unequal. Random
    maps carry their Kraus stack in ``ops``; paper-model cases carry
    ``(t, gamma1, gamma2)`` in ``model`` and qubit-2 populations in
    ``populations`` instead, and their composite map is produced by the
    operation under test.
    """

    kind: str
    d: int
    pairs: tuple
    probe_pair: tuple
    ops: Optional[np.ndarray] = None
    model: Optional[tuple] = None
    populations: Optional[tuple] = None

    @property
    def uniform(self) -> bool:
        return self.kind in ("product", "paper_equal")

    @property
    def all_product(self) -> bool:
        return self.kind != "entangling"


@dataclass(frozen=True)
class DomainOutput:
    """Plain-array view of one diagnosis as returned by the package."""

    composite_ops: np.ndarray
    branch_ops: tuple
    uniform: bool
    max_distance: float
    common_ops: Optional[np.ndarray]
    probe: float
    factors: tuple  # (is_product, singular_ratio) per composite operator


def check_domain(case: DomainCase, out: DomainOutput) -> None:
    d = case.d
    comp = np.asarray(out.composite_ops)
    if case.model is None:
        at_most("composite map echo", max_abs(comp - case.ops), 0.0)
        expected = [reduced_choi(comp, d, d, s2, 1) for _, s2 in case.pairs]
    else:
        t, g1, g2 = case.model
        expected = [paper_choi(t, g1, g2, a) for a in case.populations]
        completeness = np.einsum("kba,kbc->ac", comp.conj(), comp) - np.eye(d * d)
        at_most("composite completeness", max_abs(completeness), REDUCTION_TOL)
        at_most("composite map vs closed form",
                max_abs(reduced_choi(comp, d, d, case.pairs[0][1], 1) - expected[0]), REDUCTION_TOL)
    holds("branch count", len(out.branch_ops) == len(expected))
    for m, (ops, c) in enumerate(zip(out.branch_ops, expected)):
        at_most(f"branch {m} Choi error", max_abs(choi(ops) - c), REDUCTION_TOL)
    spread = max(
        float(np.sqrt((np.abs(expected[i] - expected[j]) ** 2).sum()))
        for i in range(len(expected)) for j in range(i + 1, len(expected))
    )
    at_most("max pairwise distance error", abs(out.max_distance - spread), REDUCTION_TOL)
    holds(f"uniform verdict is {case.uniform}", out.uniform == case.uniform)
    if case.uniform:
        at_most("branch spread of a uniform case", spread, REDUCTION_TOL)
        holds("common map present", out.common_ops is not None)
        at_most("common map Choi error", max_abs(choi(out.common_ops) - expected[0]), REDUCTION_TOL)
    else:
        at_least("branch spread of a non-uniform case", spread, NONUNIFORM_FLOOR)
        holds("common map absent", out.common_ops is None)
    rho_a, rho_b = case.probe_pair
    gap = max_abs(partial_trace(apply(comp, rho_a), d, d, 1) - partial_trace(apply(comp, rho_b), d, d, 1))
    at_most("probe error", abs(out.probe - gap), REDUCTION_TOL)
    if case.kind == "product":
        at_most("probe of a product channel", out.probe, REDUCTION_TOL)
    holds("one factorization flag per operator", len(out.factors) == len(comp))
    for k, (is_product, ratio) in enumerate(out.factors):
        at_most(f"operator {k} singular ratio error", abs(ratio - schmidt_ratio(comp[k], d, d)), REDUCTION_TOL)
        holds(f"operator {k} is_product is {case.all_product}", is_product == case.all_product)


def check_reduce_cli(rc: int, report_text: str, map_text: str, ops, d, rho_other, keep) -> None:
    holds("reduce exit code 0", rc == 0)
    out = json.loads(map_text)
    out_ops = np.stack([parse_matrix(m) for m in out["kraus"]])
    holds("output map dimension", out["dim"] == d)
    check_reduction(ops, d, d, rho_other, keep, out_ops)
    report = json.loads(report_text)
    eig = np.array(report["b_eigenvalues"])
    holds("eigenvalue count", len(eig) == d * d)
    holds("kept + truncated", report["kept"] == len(out_ops) and report["kept"] + report["truncated"] == d * d)
    at_least("smallest eigenvalue", float(eig.min()), 0.0)
    at_most("eigenvalue order", float(np.diff(eig).max(initial=0.0)), 0.0)
    at_most("eigenvalue sum error", abs(float(eig.sum()) - d), REDUCTION_TOL)
    completeness = np.einsum("kba,kbc->ac", out_ops.conj(), out_ops) - np.eye(d)
    at_most("output completeness", max_abs(completeness), REDUCTION_TOL)
    at_most("reported completeness defect", report["completeness_defect"], REDUCTION_TOL)


def check_choi_cli(rc: int, text: str, ops) -> None:
    holds("choi exit code 0", rc == 0)
    doc = json.loads(text)
    expected = choi(ops)
    holds("Choi dimension", doc["dim"] == ops.shape[1])
    at_most("Choi entry error", max_abs(parse_matrix(doc["choi"]) - expected), REDUCTION_TOL)
    lowest = float(np.linalg.eigvalsh(expected)[0])
    at_most("Choi minimum eigenvalue error", abs(doc["min_eigenvalue"] - lowest), REDUCTION_TOL)
    holds("CP verdict of a CPTP map", doc["is_cp"] is True)


def check_verify_cli(rc: int, text: str) -> None:
    holds("verify exit code 0", rc == 0)
    lines = text.splitlines()
    holds("every check passes", len(lines) > 1 and all(x.startswith("PASS") for x in lines[:-1]))
    n = len(lines) - 1
    holds("verify summary line", lines[-1] == f"{n}/{n} checks passed")


# ---------------------------------------------------------------------------
# negative controls
# ---------------------------------------------------------------------------

def _rejects(check, *args) -> bool:
    try:
        check(*args)
    except Mismatch:
        return True
    return False


def _perturbed(ops: np.ndarray, eps: float) -> np.ndarray:
    bad = ops.copy()
    bad[0, 0, 0] += eps
    return bad


def _csv(p: dict, steps: int, edit=None) -> str:
    lines = [SWEEP_HEADER]
    for step in range(steps):
        t = p["t_max"] * step / (steps - 1)
        b = list(paper_b(t, p["gamma1"], p["gamma2"], p["a"]))
        row = [t, *b, 0.0, min(b), 0.0]
        if edit is not None and step == steps // 2:
            edit(row)
        lines.append(",".join(format(x, ".17g") for x in row))
    return "\n".join(lines) + "\n"


def _set(i, value):
    def edit(row):
        row[i] = value
    return edit


def _shift(i, eps):
    def edit(row):
        row[i] += eps
    return edit


def _swap_b1_b3(row):
    row[2], row[4] = row[4], row[2]


def _expected_domain(case: DomainCase) -> DomainOutput:
    d = case.d
    chois = [reduced_choi(case.ops, d, d, s2, 1) for _, s2 in case.pairs]
    branch = tuple(kraus_from_choi(c) for c in chois)
    spread = max(
        float(np.sqrt((np.abs(chois[i] - chois[j]) ** 2).sum()))
        for i in range(len(chois)) for j in range(i + 1, len(chois))
    )
    rho_a, rho_b = case.probe_pair
    gap = max_abs(partial_trace(apply(case.ops, rho_a), d, d, 1) - partial_trace(apply(case.ops, rho_b), d, d, 1))
    factors = tuple((case.all_product, schmidt_ratio(k, d, d)) for k in case.ops)
    return DomainOutput(case.ops, branch, case.uniform, spread,
                        branch[0] if case.uniform else None, gap, factors)


def negative_controls(seed: int = 0) -> list[tuple[str, bool]]:
    """(name, behaved as intended) for a correct output of each oracle and
    for deliberately wrong ones, which every oracle must reject."""
    rng = np.random.default_rng(seed)
    d = 2
    ops = inputs.random_cptp(rng, d * d, 2)
    rho = inputs.random_density(rng, d)
    good = kraus_from_choi(reduced_choi(ops, d, d, rho, 2))
    results = [
        ("reduction accepts the brute-force map", not _rejects(check_reduction, ops, d, d, rho, 2, good)),
        ("reduction rejects a transposed channel",
         _rejects(check_reduction, ops, d, d, rho, 2, good.transpose(0, 2, 1))),
        ("reduction rejects a perturbed Kraus operator",
         _rejects(check_reduction, ops, d, d, rho, 2, _perturbed(good, 1e-8))),
        ("reduction rejects NaN", _rejects(check_reduction, ops, d, d, rho, 2, _perturbed(good, math.nan))),
        ("CP check rejects a wrong minimum eigenvalue",
         _rejects(check_reduction, ops, d, d, rho, 2, good, 1e-9, True)),
    ]

    p = {"gamma1": 0.3, "gamma2": 1.0, "a": 0.3, "t_max": 0.1}  # b1 and b3 far apart mid-sweep
    steps = 11
    results += [
        ("sweep accepts the closed form", not _rejects(check_sweep, _csv(p, steps), p, steps)),
        ("sweep rejects a perturbed b0", _rejects(check_sweep, _csv(p, steps, _shift(1, 1e-9)), p, steps)),
        ("sweep rejects swapped b1/b3", _rejects(check_sweep, _csv(p, steps, _swap_b1_b3), p, steps)),
        ("sweep rejects off-diagonal b", _rejects(check_sweep, _csv(p, steps, _set(7, 1e-11)), p, steps)),
        ("sweep rejects a negative Choi eigenvalue", _rejects(check_sweep, _csv(p, steps, _set(6, -1e-9)), p, steps)),
        ("sweep rejects a NaN trace defect", _rejects(check_sweep, _csv(p, steps, _set(5, math.nan)), p, steps)),
    ]

    a_ops, b_ops = inputs.random_cptp(rng, d, 2), inputs.random_cptp(rng, d, 2)
    pairs = tuple((inputs.random_density(rng, d), inputs.random_density(rng, d)) for _ in range(3))
    case = DomainCase("product", d, pairs, inputs.equal_marginal_pair(rng, d),
                      ops=inputs.product_channel(a_ops, b_ops))
    ok = _expected_domain(case)
    flipped = ((not ok.factors[0][0], ok.factors[0][1]),) + ok.factors[1:]
    results += [
        ("domain accepts the brute-force diagnosis", not _rejects(check_domain, case, ok)),
        ("domain rejects a flipped uniformity verdict",
         _rejects(check_domain, case, replace(ok, uniform=False, common_ops=None))),
        ("domain rejects a perturbed branch operator",
         _rejects(check_domain, case, replace(ok, branch_ops=(_perturbed(ok.branch_ops[0], 1e-8),) + ok.branch_ops[1:]))),
        ("domain rejects a perturbed probe", _rejects(check_domain, case, replace(ok, probe=ok.probe + 1e-8))),
        ("domain rejects a flipped factorization flag", _rejects(check_domain, case, replace(ok, factors=flipped))),
        ("domain rejects an entangling map called uniform",
         _rejects(check_domain, replace(case, kind="entangling"), ok)),
    ]

    c = reduced_choi(ops, d, d, rho, 1)
    out_ops = kraus_from_choi(c)
    eig = np.clip(np.linalg.eigvalsh(c)[::-1], 0.0, None)
    report = {"b_eigenvalues": [float(x) for x in eig], "kept": len(out_ops),
              "truncated": d * d - len(out_ops), "completeness_defect": 0.0}
    bad_report = dict(report, b_eigenvalues=[float(x) for x in eig + 1e-9])
    map_text = inputs.map_file_text(out_ops)
    choi_doc = {"dim": d * d, "min_eigenvalue": float(np.linalg.eigvalsh(choi(ops))[0]), "is_cp": True}
    def choi_text(m):
        return json.dumps(dict(choi_doc, choi=inputs.matrix_pairs(m)))
    verify_ok = "PASS  a\nPASS  b\n2/2 checks passed\n"
    results += [
        ("reduce CLI accepts the brute-force output",
         not _rejects(check_reduce_cli, 0, json.dumps(report), map_text, ops, d, rho, 1)),
        ("reduce CLI rejects a perturbed map file",
         _rejects(check_reduce_cli, 0, json.dumps(report), inputs.map_file_text(_perturbed(out_ops, 1e-8)), ops, d, rho, 1)),
        ("reduce CLI rejects wrong eigenvalues",
         _rejects(check_reduce_cli, 0, json.dumps(bad_report), map_text, ops, d, rho, 1)),
        ("reduce CLI rejects exit code 3", _rejects(check_reduce_cli, 3, json.dumps(report), map_text, ops, d, rho, 1)),
        ("choi CLI accepts the brute-force Choi", not _rejects(check_choi_cli, 0, choi_text(choi(ops)), ops)),
        ("choi CLI rejects a transposed Choi", _rejects(check_choi_cli, 0, choi_text(choi(ops).T), ops)),
        ("verify CLI accepts all PASS", not _rejects(check_verify_cli, 0, verify_ok)),
        ("verify CLI rejects a FAIL line", _rejects(check_verify_cli, 0, verify_ok.replace("PASS  b", "FAIL  b"))),
        ("verify CLI rejects exit code 1", _rejects(check_verify_cli, 1, verify_ok)),
    ]
    return results
