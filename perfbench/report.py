"""Run every workload and print every metric by name with its unit.

    python3 perfbench/report.py [--seed N] [--seconds S] [--out FILE]

Each workload runs twice through run.py, each time in its own process:
untraced for the end-to-end metrics and traced for the per-layer ones.
The table lists, per workload, the end-to-end metrics, the sample count,
the error rate, and the per-layer metrics. The JSON document printed last
(and written to ``--out``) records the environment and every value; its
``"claim"`` is null because a report measures one commit and claims no gain.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{name} --trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    doc = json.loads(lines[-1])
    for line in lines:
        key, _, rest = line.partition(" ")
        if key in ("env", "run"):
            doc[key] = json.loads(rest)
    return doc


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    report = {"claim": None, "seed": args.seed, "seconds": args.seconds, "env": None, "workloads": {}}
    rows = []
    all_correct = True
    for workload in spec["workloads"]:
        name = workload["name"]
        plain = run_workload(name, args.seed, args.seconds, 0)
        traced = run_workload(name, args.seed, args.seconds, 1)
        report["env"] = plain["env"]
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        correct = plain["correct"] and traced["correct"]
        all_correct = all_correct and correct
        entry = {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted,
            "samples": plain["run"]["samples"],
            "trace_passes": traced["run"]["trace.passes"],
            "trace_missing": traced["run"]["trace.missing"],
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
        }
        report["workloads"][name] = entry
        rows += [(name, k, m["value"], m["unit"]) for k, m in plain["metrics"].items()]
        rows += [(name, "samples", entry["samples"], "count"), (name, "error_rate", entry["error_rate"], "1")]
        rows += [(name, k, m["value"], m["unit"]) for k, m in traced["metrics"].items()]

    print(f"env {json.dumps(report['env'])}")
    for name, metric, value, unit in rows:
        print(f"{name:<20} {metric:<44} {value:>16.6g} {unit}")
    text = json.dumps(report)
    if args.out is not None:
        args.out.write_text(text + "\n")
    print(text)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
