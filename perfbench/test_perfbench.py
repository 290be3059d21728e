"""Tests of the benchmark itself: oracles, inputs, tracer and contract.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import calibrate
import inputs
import oracles
import run
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@pytest.mark.parametrize("name,behaved", oracles.negative_controls(seed=3))
def test_oracle_controls(name, behaved):
    assert behaved, name


@pytest.mark.parametrize("module", ["inputs.py", "oracles.py"])
def test_inputs_and_oracles_never_import_the_package(module):
    tree = ast.parse((HERE / module).read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not any(name and name.split(".")[0] == "subkraus" for name in imported)


def test_inputs_follow_the_seed():
    a = inputs.random_cptp(np.random.default_rng(5), 9, 3)
    b = inputs.random_cptp(np.random.default_rng(5), 9, 3)
    assert np.array_equal(a, b)
    completeness = np.einsum("kba,kbc->ac", a.conj(), a) - np.eye(9)
    assert np.abs(completeness).max() <= 1e-12
    rho = inputs.random_density(np.random.default_rng(5), 3)
    assert np.linalg.eigvalsh(rho)[0] > 0 and abs(np.trace(rho) - 1) <= 1e-15
    correlated, product = inputs.equal_marginal_pair(np.random.default_rng(5), 3)
    gap = oracles.partial_trace(correlated, 3, 3, 1) - oracles.partial_trace(product, 3, 3, 1)
    assert np.abs(gap).max() <= 1e-14


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.per_layer_specs()


def test_reference_units_cancel_a_slow_spell():
    sampler = calibrate.Sampler()
    ref = calibrate.REF_NS
    for i in range(100):  # the same 1 ms op; every third one in a spell that halves the host's speed
        slow = 2 if i % 3 == 0 else 1
        sampler.add("op:same", 1_000_000 * slow, ref * slow, ref * slow)
    ops_per_s, p50, p90 = sampler.ops("op:")
    assert (ops_per_s, p50, p90) == pytest.approx((1000.0, 1.0, 1.0))
    assert sampler.ops("op:", normalized=False)[2] == pytest.approx(2.0)
    for slow in (1, 1, 3):
        sampler.add("setup:build", 5_000_000 * slow, ref * slow, ref * slow)
        sampler.add("setup:warm", 1_000_000 * slow, ref, ref)
    assert sampler.setup_seconds("setup:") == pytest.approx(0.006)


@pytest.fixture
def fake_package(monkeypatch):
    """A package whose eigensolver is bound in two modules and called by a
    reduction; every other traced name is absent."""
    pkg = types.ModuleType("fakepkg")
    linalg = types.ModuleType("fakepkg.linalg")
    reduction = types.ModuleType("fakepkg.reduction")

    def hermitian_eig(h):
        return np.linalg.eigvalsh(h)

    def reduce_subsystem(h):
        return reduction.hermitian_eig(h) + linalg.hermitian_eig(h)

    linalg.hermitian_eig = hermitian_eig
    reduction.hermitian_eig = hermitian_eig
    reduction.reduce_subsystem = reduce_subsystem
    for module in (pkg, linalg, reduction):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    return linalg, reduction, hermitian_eig


def test_tracer_wraps_every_binding_and_reports_missing(fake_package):
    linalg, reduction, original = fake_package
    tracer = spans.Tracer("fakepkg")
    tracer.install()
    try:
        assert reduction.hermitian_eig is linalg.hermitian_eig is not original
        tracer.rung = 4
        reduction.reduce_subsystem(np.eye(3))
    finally:
        tracer.uninstall()
    assert linalg.hermitian_eig is original and reduction.hermitian_eig is original
    assert "basis.build_hermitian_basis" in tracer.missing
    assert "linalg.hermitian_eig" not in tracer.missing
    total = sum(end - start for _, start, end, parent, *_ in tracer.spans if parent < 0)
    m = tracer.metrics(passes=1, traced_ns=total, untraced_ns=total)
    assert m["linalg.hermitian_eig.calls"] == 2
    assert m["reduction.reduce_subsystem.calls"] == 1
    assert m["linalg.hermitian_eig.work_n3"] == 2 * 27
    assert m["basis.build_hermitian_basis.calls"] == 0
    self_sum = sum(m[f"{n}.self_ms"] for n in spans.LAYER_NAMES)
    assert abs(self_sum - total / 1e6) < 1e-9
    assert m["linalg.hermitian_eig.d4.self_ms"] == m["linalg.hermitian_eig.self_ms"]
    assert set(m) == {name for name, _ in spans.per_layer_specs()}


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench")
    proc = _run(tmp_path, "--workload", "paper_sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("trace", ["0", "1"])
def test_short_run_is_correct_and_complete(trace):
    proc = _run(ROOT, "--workload", "domain_diagnostics", "--seed", "2", "--seconds", "0.1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = spans.per_layer_specs() if trace == "1" else list(run.END_TO_END)
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == expected
