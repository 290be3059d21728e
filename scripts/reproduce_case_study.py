#!/usr/bin/env python3
"""Reproduce the damped two-qubit case study end to end.

Sweeps the composite eight-operator map over a time grid, reduces qubit 1
through the coefficient pipeline at every grid point in one batched pass,
compares against the closed forms, and writes the diagnostics CSV. Landmarks printed at the end:
identity channel at t = 0, weight conservation, completeness of the
composite map, and the worst algorithm-vs-closed-form deviation.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from subkraus import DampingRates, closed_form_b, completeness_defect, composite_kraus_grid
from subkraus.cli import main as cli_main
from subkraus.verify import closed_form_residuals


@dataclass(frozen=True)
class SweepConfig:
    gamma1: float = 0.3
    gamma2: float = 1.0
    a: float = 0.3
    t_max: float = 1.0
    steps: int = 101
    out: str = "case_study_sweep.csv"


def run(config: SweepConfig) -> int:
    rates = DampingRates(config.gamma1, config.gamma2)
    code = cli_main([
        "case-study",
        "--gamma1", str(config.gamma1),
        "--gamma2", str(config.gamma2),
        "--a", str(config.a),
        "--t-max", str(config.t_max),
        "--steps", str(config.steps),
        "--out", config.out,
    ])
    if code != 0:
        return code
    print(f"wrote {config.steps}-row sweep to {config.out}")

    # the landmarks describe the CSV's own time grid
    ts = np.loadtxt(config.out, delimiter=",", skiprows=1, usecols=0, ndmin=1)
    worst_defect = float(completeness_defect(composite_kraus_grid(ts, rates)).max())
    worst_b, _, worst_dist = (float(r.max()) for r in closed_form_residuals(ts, rates, config.a))

    b_start = closed_form_b(0.0, rates, config.a)
    print(f"b(0) = {b_start}  (identity channel)")
    print(f"max composite completeness defect: {worst_defect:.3e}")
    print(f"max |algorithm b - closed form|:   {worst_b:.3e}")
    print(f"max channel distance to closed form: {worst_dist:.3e}")
    return 0


def parse_args(argv=None) -> SweepConfig:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--gamma1", type=float, default=SweepConfig.gamma1)
    parser.add_argument("--gamma2", type=float, default=SweepConfig.gamma2)
    parser.add_argument("--a", type=float, default=SweepConfig.a)
    parser.add_argument("--t-max", type=float, default=SweepConfig.t_max, dest="t_max")
    parser.add_argument("--steps", type=int, default=SweepConfig.steps)
    parser.add_argument("--out", default=SweepConfig.out)
    ns = parser.parse_args(argv)
    return SweepConfig(ns.gamma1, ns.gamma2, ns.a, ns.t_max, ns.steps, ns.out)


if __name__ == "__main__":
    sys.exit(run(parse_args()))
