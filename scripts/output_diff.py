#!/usr/bin/env python3
"""Compare the program's fixed output set between a git revision and the
working tree.

    python scripts/output_diff.py REV

exports ``REV`` with ``git archive`` into a temporary directory, generates
the output set from that tree and from the working tree, and prints one
line per file: ``identical``, or ``differs`` followed by the largest absolute
and relative deviation of each CSV column or JSON field that moved (for a
text file, the lines that moved). It exits 0 when every file is identical
and 1 otherwise. It runs offline and needs no installed package.

The output set:

* ``reduce`` maps and reports of random trace-preserving maps, for the
  splits 2x2, 3x3, 2x3 and 4x4, each with keep 1 and 2, against random
  complex traced-out states;
* ``choi`` documents of those maps;
* the ``case-study`` CSV at 101, 1001 and 2100 steps;
* ``verify --scope all`` stdout, and every command's exit code.

Each tree runs the commands in one process of its own, with that tree's
``src/`` on the import path and its working directory inside the tree. The
inputs are written once, with numpy alone, and shared by both trees. A
report names its output file; the tree's output directory is written there
as ``OUT`` so that the reports of two trees compare.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
SPLITS = ((2, 2), (3, 3), (2, 3), (4, 4))
SWEEP_STEPS = (101, 1001, 2100)


def _random_complex(rng, d: int) -> np.ndarray:
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _matrix(m: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def write_inputs(directory: Path) -> None:
    """Random trace-preserving maps on every split and random complex
    states of every subsystem dimension, as map and density files."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(2017)
    for d1, d2 in SPLITS:
        d = d1 * d2
        ops = [_random_complex(rng, d) for _ in range(3)]
        w, v = np.linalg.eigh(sum(op.conj().T @ op for op in ops))
        inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
        doc = {"dim": d, "kraus": [_matrix(op @ inv_sqrt) for op in ops]}
        (directory / f"map_{d1}x{d2}.json").write_text(json.dumps(doc))
    for d in sorted({d for split in SPLITS for d in split}):
        a = _random_complex(rng, d)
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        (directory / f"rho{d}.json").write_text(json.dumps({"dim": d, "rho": _matrix(rho)}))


def _commands(inputs: Path, out: Path) -> list[tuple[str, list[str]]]:
    """(stdout file name, CLI arguments) of every command of the set."""
    commands = []
    for d1, d2 in SPLITS:
        split = f"{d1}x{d2}"
        map_file = str(inputs / f"map_{split}.json")
        for keep in (1, 2):
            name = f"reduce_{split}_keep{keep}"
            traced = d2 if keep == 1 else d1
            commands.append((f"{name}.report.json", [
                "reduce", "--map", map_file, "--d1", str(d1), "--d2", str(d2),
                "--rho", str(inputs / f"rho{traced}.json"), "--keep", str(keep),
                "--out", str(out / f"{name}.map.json"),
            ]))
        commands.append((f"choi_{split}.stdout", [
            "choi", "--map", map_file, "--out", str(out / f"choi_{split}.json"),
        ]))
    for steps in SWEEP_STEPS:
        commands.append((f"case_study_{steps}.stdout", [
            "case-study", "--gamma1", "0.3", "--gamma2", "1.0", "--a", "0.3",
            "--t-max", "2.0", "--steps", str(steps), "--out", str(out / f"case_study_{steps}.csv"),
        ]))
    commands.append(("verify.txt", ["verify", "--scope", "all"]))
    return commands


def _generate_here(inputs: Path, out: Path) -> None:
    """Run every command in this process, through the ``subkraus`` on the
    import path, writing each stdout and the exit codes into ``out``."""
    from subkraus.cli import main

    out.mkdir(parents=True, exist_ok=True)
    codes = []
    for name, argv in _commands(inputs, out):
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = main(argv)
        if captured.getvalue():
            (out / name).write_text(captured.getvalue().replace(str(out), "OUT"))
        codes.append(f"{name} {code}\n")
    (out / "exit_codes.txt").write_text("".join(codes))


def generate(tree: Path, inputs: Path, out: Path) -> None:
    """The output set of ``tree``, from its own ``src/`` and with the
    working directory inside it, written into ``out``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--generate-here", str(inputs), str(out)],
        cwd=tree, env=env, check=True,
    )


def export(rev: str, directory: Path) -> Path:
    """The committed tree of ``rev``, extracted into ``directory``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=REPO, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(directory, filter="data")
    return directory


def _deviation(a: list[float], b: list[float]) -> tuple[float, float]:
    """Largest absolute and relative deviation between two equal-length
    number lists; a pair that is not equal and not finite counts as inf."""
    worst_abs = worst_rel = 0.0
    for x, y in zip(a, b):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        diff = abs(x - y)
        if not math.isfinite(diff):
            return math.inf, math.inf
        worst_abs = max(worst_abs, diff)
        worst_rel = max(worst_rel, diff / max(abs(x), abs(y)))
    return worst_abs, worst_rel


def _numbers(value) -> list[float]:
    """Every number in a JSON value, depth first."""
    if isinstance(value, list):
        return [x for item in value for x in _numbers(item)]
    if isinstance(value, dict):
        return [x for item in value.values() for x in _numbers(item)]
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return [float(value)] if is_number else []


def _skeleton(value):
    """A JSON value with every number replaced by None: what must match exactly."""
    if isinstance(value, list):
        return [_skeleton(item) for item in value]
    if isinstance(value, dict):
        return {key: _skeleton(item) for key, item in value.items()}
    return None if _numbers(value) else value


def _fields(text: str, suffix: str) -> dict[str, tuple[list[float], object]]:
    """Named fields of a file, each as its numbers and its skeleton: the
    columns of a CSV (the skeleton is the row count), the top-level fields of
    a JSON document."""
    if suffix == ".csv":
        header, *rows = list(csv.reader(io.StringIO(text)))
        return {name: ([float(row[i]) for row in rows], len(rows)) for i, name in enumerate(header)}
    return {key: (_numbers(value), _skeleton(value)) for key, value in json.loads(text).items()}


def _describe(name: str, a: str, b: str) -> list[str]:
    """The deviation lines of one file that differs between two trees."""
    suffix = Path(name).suffix
    if suffix in (".csv", ".json"):
        fa, fb = _fields(a, suffix), _fields(b, suffix)
        if fa.keys() != fb.keys():
            return [f"    fields differ: {sorted(fa)} vs {sorted(fb)}"]
        lines = []
        for key in fa:
            (na, skeleton_a), (nb, skeleton_b) = fa[key], fb[key]
            if skeleton_a != skeleton_b:
                lines.append(f"    {key}: differs beyond its numbers")
            elif na != nb:
                worst_abs, worst_rel = _deviation(na, nb)
                lines.append(f"    {key}: max abs {worst_abs:.3e}  max rel {worst_rel:.3e}")
        return lines
    la, lb = a.splitlines(), b.splitlines()
    lines = [f"    line counts {len(la)} vs {len(lb)}"] if len(la) != len(lb) else []
    for i, (x, y) in enumerate(zip(la, lb), 1):
        if x != y:
            lines += [f"    {i}- {x}", f"    {i}+ {y}"]
    return lines


def compare(dir_a: Path, dir_b: Path) -> tuple[list[str], bool]:
    """One report line per file of either output set (and deviation lines
    under each file that differs), and whether every file is identical."""
    names = sorted({p.name for p in dir_a.iterdir()} | {p.name for p in dir_b.iterdir()})
    lines, same = [], True
    width = max(map(len, names))
    for name in names:
        pa, pb = dir_a / name, dir_b / name
        if not (pa.exists() and pb.exists()):
            lines.append(f"{name:<{width}}  only in {'the first' if pa.exists() else 'the second'} set")
            same = False
        elif pa.read_bytes() == pb.read_bytes():
            lines.append(f"{name:<{width}}  identical")
        else:
            lines.append(f"{name:<{width}}  differs")
            lines += _describe(name, pa.read_text(), pb.read_text())
            same = False
    return lines, same


def run(rev: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_inputs(root / "inputs")
        old_tree = export(rev, root / "tree")
        generate(old_tree, root / "inputs", root / "old")
        generate(REPO, root / "inputs", root / "new")
        lines, same = compare(root / "old", root / "new")
    print(f"output set of {rev} (first) vs the working tree (second)")
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--generate-here"]:
        _generate_here(Path(sys.argv[2]), Path(sys.argv[3]))
    elif len(sys.argv) == 2:
        sys.exit(run(sys.argv[1]))
    else:
        sys.exit(__doc__)
