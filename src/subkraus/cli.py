"""Command-line interface.

Commands:

* ``reduce``      run the subsystem-extraction algorithm on a map file
* ``case-study``  sweep the two-qubit model and write a CSV of diagnostics
* ``verify``      run the self-verification suites
* ``choi``        dump the Choi matrix and its minimum eigenvalue

Exit codes are a stable contract: 0 success, 1 verification failure,
2 input validation, 3 model diagnostic (broken completeness, raised as
``channels.CompletenessError``, or a negative mixing-matrix eigenvalue).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import casestudy, channels, reduction, verify
from .channels import FIELD17, fmt17, matrix_json
from .linalg import finite_real

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_VALIDATION = 2
EXIT_DIAGNOSTIC = 3

SWEEP_ROW = ",".join([FIELD17] * len(casestudy.SWEEP_HEADER.split(",")))
# Grid points per batched pass of case-study; bounds the numpy arrays of one
# pass, while the time grid and the CSV lines still grow with --steps.
SWEEP_CHUNK = 1024


def _read_text(path: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise ValueError(f"no such file: {path}")
    return p.read_text()


def _load_checked_map(path: str) -> channels.KrausMap:
    raw = channels.load_map_json(_read_text(path))
    try:
        return channels.KrausMap(raw.dim, raw.stacked(), trace_preserving=True)
    except channels.CompletenessError as exc:
        raise _Diagnostic(f"map file {path}: {exc}") from exc


def _finite_float(text: str) -> float:
    """argparse type for float flags: NaN and infinities are invalid input."""
    try:
        return finite_real(float(text), "value")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}") from None


class _Diagnostic(RuntimeError):
    """Model-level failure; mapped to exit code 3."""


def cmd_reduce(args: argparse.Namespace) -> int:
    kmap = _load_checked_map(args.map)
    split = reduction.Bipartition(args.d1, args.d2)
    rho = channels.load_density_json(_read_text(args.rho))
    result = reduction.reduce_subsystem(
        kmap, split, rho, keep=args.keep, truncation=args.truncation
    )
    out_map = channels.dump_map_json(result.subsystem_map, label=f"reduced keep={args.keep}")
    Path(args.out).write_text(out_map)
    report = {
        "b_eigenvalues": [float(x) for x in result.eigenvalues],
        "kept": len(result.subsystem_map.operators),
        "truncated": result.truncated_count,
        "completeness_defect": channels.completeness_defect(result.subsystem_map),
        "out": args.out,
    }
    print(json.dumps(report))
    return EXIT_OK


def cmd_case_study(args: argparse.Namespace) -> int:
    if args.steps < 2:
        raise ValueError(f"--steps must be at least 2, got {args.steps}")
    if args.t_max <= 0:
        raise ValueError(f"--t-max must be positive, got {args.t_max}")
    rates = casestudy.DampingRates(args.gamma1, args.gamma2)
    rho2 = casestudy.qubit_state(args.a)
    split = reduction.Bipartition(2, 2)
    ts = args.t_max * np.arange(args.steps) / (args.steps - 1)
    lines = [casestudy.SWEEP_HEADER]
    for start in range(0, args.steps, SWEEP_CHUNK):
        chunk = ts[start : start + SWEEP_CHUNK]
        stacks = casestudy.composite_kraus_grid(chunk, rates)
        try:
            grid = reduction.reduce_subsystem_grid(
                stacks, split, rho2, keep=1, truncation=args.truncation
            )
        except reduction.NonPositiveBMatrixError as exc:
            raise _Diagnostic(f"at t={chunk[exc.index]}: {exc}") from exc
        rows = casestudy.sweep_table(chunk, grid)
        lines.extend(SWEEP_ROW % tuple(row) for row in rows.tolist())
    Path(args.out).write_text("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    results = verify.run_checks(args.scope)
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        if not r.passed:
            failed += 1
        note = f"  {r.note}" if r.note else ""
        print(
            f"{status}  [{r.scope:<10}] {r.name:<{width}}  "
            f"measured={r.measured:.3e} bound={r.bound:.1e}{note}"
        )
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


def cmd_choi(args: argparse.Namespace) -> int:
    raw = channels.load_map_json(_read_text(args.map))
    # a loaded map is not asserted trace preserving, so there is no trace gate
    choi = channels.choi_matrix(raw)
    verdict = channels.cp_verdict(choi, tol=args.tol)
    doc = (
        "{"
        + f'"dim":{raw.dim},"min_eigenvalue":{fmt17(verdict.min_eigenvalue)},'
        + f'"is_cp":{"true" if verdict.is_cp else "false"},'
        + f'"choi":{matrix_json(choi.matrix)}'
        + "}\n"
    )
    if args.out:
        Path(args.out).write_text(doc)
    else:
        sys.stdout.write(doc)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process and shared by
    every call of :func:`main`."""
    parser = argparse.ArgumentParser(
        prog="subkraus",
        description="Subsystem Kraus extraction and complete-positivity diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_reduce = sub.add_parser("reduce", help="extract a subsystem Kraus map from a map file")
    p_reduce.add_argument("--map", required=True, help="composite map JSON file")
    p_reduce.add_argument("--d1", type=int, required=True, help="dimension of subsystem 1")
    p_reduce.add_argument("--d2", type=int, required=True, help="dimension of subsystem 2")
    p_reduce.add_argument("--rho", required=True, help="traced-out factor's state JSON file")
    p_reduce.add_argument("--keep", type=int, choices=(1, 2), default=1,
                          help="which subsystem to keep (default 1)")
    p_reduce.add_argument("--truncation", type=_finite_float, default=reduction.DEFAULT_TRUNCATION,
                          help="relative eigenvalue cutoff for dropped operators")
    p_reduce.add_argument("--out", required=True, help="output map JSON file")
    p_reduce.set_defaults(func=cmd_reduce)

    p_case = sub.add_parser("case-study", help="sweep the damped two-qubit model")
    p_case.add_argument("--gamma1", type=_finite_float, required=True)
    p_case.add_argument("--gamma2", type=_finite_float, required=True)
    p_case.add_argument("--a", type=_finite_float, required=True,
                        help="initial population parameter of qubit 2, in [0, 1]")
    p_case.add_argument("--t-max", type=_finite_float, required=True, dest="t_max")
    p_case.add_argument("--steps", type=int, required=True)
    p_case.add_argument("--truncation", type=_finite_float, default=reduction.DEFAULT_TRUNCATION)
    p_case.add_argument("--out", required=True, help="output CSV file")
    p_case.set_defaults(func=cmd_case_study)

    p_verify = sub.add_parser("verify", help="run the self-verification suites")
    p_verify.add_argument("--scope", choices=("structural", "model", "all"), default="all")
    p_verify.set_defaults(func=cmd_verify)

    p_choi = sub.add_parser("choi", help="dump the Choi matrix of a map file")
    p_choi.add_argument("--map", required=True)
    p_choi.add_argument("--tol", type=_finite_float, default=channels.CP_EIG_TOL)
    p_choi.add_argument("--out", default=None)
    p_choi.set_defaults(func=cmd_choi)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_Diagnostic, casestudy.ModelInconsistencyError, reduction.NonPositiveBMatrixError,
            channels.CompletenessError) as exc:
        print(f"diagnostic: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTIC
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
