"""Smoke tests: each experiment script runs end to end and prints its landmarks,
and the README examples run as written."""

import importlib.util
import re
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
README = SCRIPTS.parent / "README.md"


def load_script(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/
    spec.loader.exec_module(module)
    return module


def test_reproduce_case_study(tmp_path, monkeypatch, capsys):
    script = load_script("reproduce_case_study", monkeypatch)
    out = tmp_path / "sweep.csv"
    assert script.run(script.SweepConfig(steps=21, out=str(out))) == 0
    printed = capsys.readouterr().out
    assert f"wrote 21-row sweep to {out}" in printed
    assert "b(0) = (2.0, " in printed and "(identity channel)" in printed
    for landmark in (
        "max composite completeness defect:",
        "max |algorithm b - closed form|:",
        "max channel distance to closed form:",
    ):
        assert landmark in printed
    assert len(out.read_text().splitlines()) == 22


def test_reduced_domain_demo(monkeypatch, capsys):
    script = load_script("reduced_domain_demo", monkeypatch)
    assert script.run(script.DemoConfig()) == 0
    printed = capsys.readouterr().out
    assert "=== branch agreement for a correlated (separable) preparation ===" in printed
    assert "equal rates" in printed and "uniform: one Kraus form covers the domain" in printed
    assert "unequal rates" in printed and "split: no state-independent Kraus form" in printed
    assert "=== equal-marginal probe (unequal rates) ===" in printed
    assert "product vs itself (control):" in printed


def test_readme_examples():
    """The Quick start and the Time grids example run in order in one
    namespace, as a reader pastes them: the second uses ``rates`` of the first."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["grid"].b.shape == (101, 4, 4)
    result, closed = namespace["result"], namespace["closed"]
    assert namespace["channel_distance"](result.subsystem_map, closed) < 1e-12


def test_output_diff_generates_and_compares_one_tree(tmp_path, monkeypatch):
    script = load_script("output_diff", monkeypatch)
    script.write_inputs(tmp_path / "inputs")
    first = tmp_path / "first"
    script.generate(SCRIPTS.parent, tmp_path / "inputs", first)
    lines, same = script.compare(first, first)
    assert same and len(lines) == 25
    assert all(line.endswith("  identical") for line in lines)
    assert "OUT/reduce_2x3_keep2.map.json" in (first / "reduce_2x3_keep2.report.json").read_text()
    assert (first / "exit_codes.txt").read_text().count(" 0\n") == 16

    second = tmp_path / "second"
    second.mkdir()
    for path in first.iterdir():
        (second / path.name).write_bytes(path.read_bytes())
    csv_path = second / "case_study_101.csv"
    rows = csv_path.read_text().splitlines()
    fields = rows[2].split(",")
    fields[1] = repr(float(fields[1]) * (1 + 1e-9))
    rows[2] = ",".join(fields)
    csv_path.write_text("\n".join(rows) + "\n")
    verify_path = second / "verify.txt"
    verify_path.write_text(verify_path.read_text().replace("PASS", "FAIL", 1))
    lines, same = script.compare(first, second)
    assert not same
    b0 = next(line for line in lines if line.strip().startswith("b0:"))
    assert "max rel 1.0" in b0
    assert "case_study_101.csv" in lines[lines.index(b0) - 1]
    assert any(line.strip().startswith("1+ FAIL") for line in lines)
