"""subkraus benchmark: one workload, one process, one closed-loop caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout: the package is imported from ``src/`` next to this
directory, never from anywhere else. With ``--trace 0`` the run sets up
three times, then calls operations one after another until their summed
time reaches ``--seconds``, and reports the end-to-end metrics; times are
in reference units (see ``calibrate.py``), and the plain ones are printed
alongside. With ``--trace 1`` it alternates untraced and traced
passes over a fixed op list for about ``--seconds`` and reports per-layer
metrics per pass, also in reference units. Every output is checked by an independent oracle after
its timer stops; each run also reruns one case-study sweep and one reduce
for byte identity and runs the oracles' negative controls. The last line
of standard output is the JSON result.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # after pinning BLAS threads, which numpy reads on import
import importlib
import json
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback
import types
from pathlib import Path

import numpy as np

import oracles
import calibrate
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PACKAGE = "subkraus"
SETUP_REPEATS = 3
MIN_OPS = 100
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class SetupError(Exception):
    """The checkout cannot be benchmarked."""


def import_package() -> types.SimpleNamespace:
    """Fresh import of the package from this checkout's src/."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    location = Path(pkg.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise SetupError(f"{PACKAGE} was imported from {location}, not from {SRC}")
    mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in ("casestudy", "channels", "reduction", "cli")}
    return types.SimpleNamespace(**mods)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    src_loc = sum(len(p.read_text().splitlines()) for p in sorted((SRC / PACKAGE).glob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "git_commit": git_commit(),
        "src_loc": src_loc,
    }


class Tally:
    """Attempted and failed ops; prints the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, ok: bool, message: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {label}: {message}", file=sys.stderr)


def run_op(op: workloads.Op, tally: Tally, sampler: calibrate.Sampler, label: str = "",
           tracer: spans.Tracer | None = None) -> int:
    """Time one op between two reference-kernel timings, then check it;
    returns its plain latency in ns."""
    if tracer is not None:
        tracer.op += 1
        tracer.rung = op.rung
    ref_before = calibrate.reference_ns()
    output, error = None, None
    start = time.perf_counter_ns()
    try:
        output = op.run()
    except (Exception, SystemExit) as exc:  # a crashing op is a failed op, not a crashed run
        error = exc
    elapsed = time.perf_counter_ns() - start
    sampler.add(label + op.kind, elapsed, ref_before, calibrate.reference_ns())
    if error is None:
        try:
            op.check(output)
        except Exception as exc:  # a wrong output is a failed op
            error = exc
    message = "" if error is None else "".join(traceback.format_exception_only(type(error), error)).strip()
    tally.record(op.kind, error is None, message)
    return elapsed


def set_up(name: str, seed: int, workdir: Path, tally: Tally, sampler: calibrate.Sampler) -> workloads.Workload:
    """Import, generate inputs and warm up one op per kind, timing each step
    into ``sampler`` under a ``setup:`` kind (checks excluded)."""
    ref_before = calibrate.reference_ns()
    start = time.perf_counter_ns()
    pkg = import_package()
    workload = workloads.WORKLOADS[name](pkg, seed, workdir)
    sampler.add("setup:build", time.perf_counter_ns() - start, ref_before, calibrate.reference_ns())
    for op in workload.warmups():
        run_op(op, tally, sampler, "setup:")
    return workload


def timed_run(workload: workloads.Workload, seconds: float, tally: Tally, sampler: calibrate.Sampler) -> int:
    """Closed loop until the ops' summed time reaches ``seconds``; returns the op count."""
    budget = seconds * 1e9
    count = busy = 0
    for op in workload.sequence():
        if busy >= budget and count >= MIN_OPS:
            break
        busy += run_op(op, tally, sampler, "op:")
        count += 1
    return count


def traced_run(workload: workloads.Workload, seconds: float, tally: Tally, tracer: spans.Tracer,
               sampler: calibrate.Sampler) -> dict:
    """Alternate untraced and traced passes over the same op list; span and
    pass times are scaled to reference units op by op."""
    ops = workload.trace_pass()
    totals = {False: 0.0, True: 0.0}
    plain = passes = 0
    while passes == 0 or plain < seconds * 1e9:
        for traced in (passes % 2 == 1, passes % 2 == 0):  # alternate which goes first
            if traced:
                tracer.install()
            try:
                for op in ops:
                    plain += run_op(op, tally, sampler, tracer=tracer if traced else None)
                    sample = sampler.samples[-1]
                    totals[traced] += sample.normalized_ns
                    if traced:
                        tracer.scale[tracer.op] = sample.normalized_ns / sample.ns
            finally:
                if traced:
                    tracer.uninstall()
        passes += 1
    metrics = tracer.metrics(passes, totals[True], totals[False])
    metrics["trace.passes"] = passes
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no package at {SRC / PACKAGE}; run from a subkraus checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT))
    tempfile.tempdir = str(workdir)  # the package's verify suite writes temporary files
    try:
        return measure(args, workdir)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path) -> int:
    tally = Tally()
    sampler = calibrate.Sampler()
    for _ in range(1 if args.trace else SETUP_REPEATS):
        workload = set_up(args.workload, args.seed, workdir, tally, sampler)

    tracer = None
    if args.trace:
        tracer = spans.Tracer(PACKAGE)
        metrics = traced_run(workload, args.seconds, tally, tracer, sampler)
        specs = spans.per_layer_specs()
        extra = {"trace.passes": metrics.pop("trace.passes"), "trace.missing": tracer.missing}
    else:
        samples = timed_run(workload, args.seconds, tally, sampler)
        ops_per_s, p50, p90 = sampler.ops("op:")
        metrics = {
            "ops_per_s": ops_per_s,
            "latency_p50_ms": p50,
            "latency_p90_ms": p90,
            "setup_s": sampler.setup_seconds("setup:"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        specs = list(END_TO_END)
        plain = sampler.ops("op:", normalized=False)
        extra = {"samples": samples, "plain_ops_per_s": plain[0], "plain_latency_p50_ms": plain[1],
                 "plain_latency_p90_ms": plain[2]}

    for name, ok, message in workloads.determinism_guard(workload.pkg, args.seed, workdir):
        tally.record(name, ok, message)
    controls_ok = True
    for name, behaved in oracles.negative_controls(args.seed):
        if not behaved:
            controls_ok = False
            print(f"NEGATIVE CONTROL FAILED: {name}", file=sys.stderr)

    env = environment(args.seed)
    extra.update(workload=args.workload, attempted=tally.attempted, failed=tally.failed,
                 error_rate=tally.failed / tally.attempted, controls_ok=controls_ok)
    if tracer is not None:
        path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(path)
        extra["spans_file"] = str(path.relative_to(ROOT))
    print("env " + json.dumps(env))
    print("run " + json.dumps(extra))
    for name, unit in specs:
        print(f"{name} = {metrics[name]} {unit}")
    result = {
        "correct": tally.failed == 0 and controls_ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
