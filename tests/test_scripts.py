"""Smoke tests: each experiment script runs end to end and prints its landmarks."""

import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


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
