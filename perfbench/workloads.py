"""The four benchmark workloads.

Each workload draws its inputs from the seed with :mod:`inputs`, hands the
package only those inputs, and pairs every operation with an oracle check
from :mod:`oracles`. ``run`` is the timed part of an operation; ``check``
runs after the timer stops. Package functions are always reached through
their module attribute at call time, so the tracer's wrappers see them.

Op counts per cycle are chosen so that the median and the 90th percentile
each fall well inside one op kind's latency band, which keeps them steady
however many cycles fit in a run.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import oracles

SWEEP_STEPS = 101


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    rung: int = 0


def call_cli(pkg, argv: list[str]) -> tuple[int, str]:
    """cli.main in process, with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = pkg.cli.main(argv)
    return rc, buf.getvalue()


def sweep_argv(p: dict, out: Path) -> list[str]:
    return [
        "case-study", "--gamma1", repr(p["gamma1"]), "--gamma2", repr(p["gamma2"]),
        "--a", repr(p["a"]), "--t-max", repr(p["t_max"]), "--steps", str(SWEEP_STEPS),
        "--out", str(out),
    ]


def sweep_op(pkg, p: dict, out: Path) -> Op:
    def check(result):
        rc, _ = result
        oracles.holds("case-study exit code 0", rc == 0)
        oracles.check_sweep(out.read_text(), p, SWEEP_STEPS)

    return Op("sweep", lambda: call_cli(pkg, sweep_argv(p, out)), check)


def reduce_cli_op(pkg, kind: str, ops, rho, d: int, keep: int, map_path: Path, rho_path: Path,
                  out: Path) -> Op:
    argv = ["reduce", "--map", str(map_path), "--d1", str(d), "--d2", str(d), "--rho", str(rho_path),
            "--keep", str(keep), "--out", str(out)]

    def check(result):
        rc, report = result
        oracles.check_reduce_cli(rc, report, out.read_text(), ops, d, rho, keep)

    return Op(kind, lambda: call_cli(pkg, argv), check)


class Workload:
    """``once`` runs first in every run, then ``cycle`` repeats; a traced
    pass is ``once`` plus the first ``trace_len`` ops of ``cycle``."""

    name = ""
    trace_len = 0

    def __init__(self, pkg, seed: int, workdir: Path):
        self.pkg = pkg
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.once: list[Op] = []
        self.cycle: list[Op] = []
        self.build()

    def build(self) -> None:
        raise NotImplementedError

    def warmups(self) -> list[Op]:
        """One op of each kind."""
        first: dict[str, Op] = {}
        for op in self.once + self.cycle:
            first.setdefault(op.kind, op)
        return list(first.values())

    def sequence(self):
        yield from self.once
        while True:
            yield from self.cycle

    def trace_pass(self) -> list[Op]:
        return self.once + self.cycle[: self.trace_len or len(self.cycle)]

    def shuffled(self, ops: list[Op]) -> list[Op]:
        return [ops[i] for i in self.rng.permutation(len(ops))]


class PaperSweep(Workload):
    """case-study sweeps of the damped two-qubit model through cli.main."""

    name = "paper_sweep"
    trace_len = 8
    POOL = 512  # more than a run executes, so every sweep has fresh parameters

    def build(self):
        out = self.workdir / "sweep.csv"
        self.cycle = [sweep_op(self.pkg, inputs.sweep_params(self.rng), out) for _ in range(self.POOL)]


class DimLadder(Workload):
    """reduce_subsystem then cp_verdict(choi_matrix(.)) on random CPTP maps, d1 = d2 = d."""

    name = "dim_ladder"
    KRAUS = 3
    # per cycle; the one d = 8 op runs once per run
    MIX = {2: 20, 3: 15, 4: 12, 6: 3}

    def build(self):
        self.once = [self._op(8, 1)]
        self.cycle = self.shuffled([self._op(d, 1 + i % 2) for d, n in self.MIX.items() for i in range(n)])

    def _op(self, d: int, keep: int) -> Op:
        ch, red = self.pkg.channels, self.pkg.reduction
        ops = inputs.random_cptp(self.rng, d * d, self.KRAUS)
        rho = inputs.random_density(self.rng, d)
        kmap = ch.KrausMap(d * d, tuple(ops), trace_preserving=True)
        state = ch.DensityMatrix(rho)
        split = red.Bipartition(d, d)

        def run():
            result = self.pkg.reduction.reduce_subsystem(kmap, split, state, keep=keep)
            verdict = self.pkg.channels.cp_verdict(self.pkg.channels.choi_matrix(result.subsystem_map))
            return result, verdict

        def check(output):
            result, verdict = output
            oracles.check_reduction(ops, d, d, rho, keep, np.stack(result.subsystem_map.operators),
                                    verdict.min_eigenvalue, verdict.is_cp)

        return Op(f"d{d}", run, check, rung=d)


class DomainDiagnostics(Workload):
    """Separable-ensemble reduction, uniformity verdict, equal-marginal probe
    and factorization test of one map per op."""

    name = "domain_diagnostics"
    BRANCHES = 6
    # per cycle: (kind, d, count); as many product maps as entangling ones,
    # and by latency the median falls mid-way into product d=2, the 90th
    # percentile mid-way into entangling d=3
    MIX = (
        ("product", 2, 16), ("product", 3, 4), ("entangling", 2, 8), ("entangling", 3, 12),
        ("paper_equal", 2, 12), ("paper_unequal", 2, 12),
    )

    def build(self):
        self.cycle = self.shuffled([self._op(kind, d) for kind, d, n in self.MIX for _ in range(n)])

    def _op(self, kind: str, d: int) -> Op:
        rng, pkg = self.rng, self.pkg
        ch, red = pkg.channels, pkg.reduction
        w = rng.uniform(0.5, 1.5, self.BRANCHES)
        weights = tuple(float(x) for x in w / w.sum())
        probe_pair = inputs.equal_marginal_pair(rng, d)
        ops = model = populations = None
        if kind == "product":
            ops = inputs.product_channel(inputs.random_cptp(rng, d, 2), inputs.random_cptp(rng, d, 2))
        elif kind == "entangling":
            ops = inputs.random_cptp(rng, d * d, 2)
        else:
            gamma1 = float(rng.uniform(0.1, 0.8))
            gamma2 = gamma1 if kind == "paper_equal" else gamma1 + float(rng.uniform(0.5, 1.2))
            if rng.random() < 0.5:
                gamma1, gamma2 = gamma2, gamma1
            model = (float(rng.uniform(0.05, 0.3)), gamma1, gamma2)
            populations = (0.0, 1.0, *(float(x) for x in rng.uniform(0.0, 1.0, self.BRANCHES - 2)))
        if populations is None:
            traced_out = [inputs.random_density(rng, d) for _ in range(self.BRANCHES)]
        else:
            traced_out = [inputs.qubit_state(a) for a in populations]
        pairs = tuple((inputs.random_density(rng, d), s2) for s2 in traced_out)
        case = oracles.DomainCase(kind, d, pairs, probe_pair, ops, model, populations)

        ensemble = red.SeparableEnsemble(
            weights, tuple((ch.DensityMatrix(s1), ch.DensityMatrix(s2)) for s1, s2 in pairs))
        state_a, state_b = (ch.DensityMatrix(x) for x in probe_pair)
        split = red.Bipartition(d, d)
        if model is None:
            fixed_map = ch.KrausMap(d * d, tuple(ops), trace_preserving=True)
        else:
            rates = pkg.casestudy.DampingRates(model[1], model[2])

        def run():
            r = self.pkg.reduction
            kmap = fixed_map if model is None else self.pkg.casestudy.composite_kraus(model[0], rates)
            branches = r.reduce_separable_ensemble(kmap, split, ensemble)
            verdict = r.reduced_domain_verdict(branches)
            probe = r.correlated_probe(kmap, split, state_a, state_b)
            factors = r.factorization_check(branches[0].coefficients)
            return kmap, branches, verdict, probe, factors

        def check(output):
            kmap, branches, verdict, probe, factors = output
            common = verdict.common_map
            oracles.check_domain(case, oracles.DomainOutput(
                composite_ops=np.stack(kmap.operators),
                branch_ops=tuple(np.stack(b.subsystem_map.operators) for b in branches),
                uniform=bool(verdict.uniform),
                max_distance=verdict.max_pairwise_distance,
                common_ops=None if common is None else np.stack(common.operators),
                probe=probe,
                factors=tuple((bool(f.is_product), f.singular_ratio) for f in factors),
            ))

        return Op(f"{kind}_d{d}", run, check)


class CliFiles(Workload):
    """cli.main reduce / choi on map and density files, and one verify per run."""

    name = "cli_files"
    KRAUS = 3
    # per cycle: (command, d, count)
    MIX = (("reduce", 2, 8), ("reduce", 3, 6), ("reduce", 4, 4), ("choi", 2, 4), ("choi", 3, 1))

    def build(self):
        self.once = [Op("verify", lambda: call_cli(self.pkg, ["verify", "--scope", "all"]),
                        lambda result: oracles.check_verify_cli(*result))]
        ops = []
        for command, d, n in self.MIX:
            for i in range(n):
                ops.append(self._op(command, d, len(ops), 1 + i % 2))
        self.cycle = self.shuffled(ops)

    def _op(self, command: str, d: int, index: int, keep: int) -> Op:
        ops = inputs.random_cptp(self.rng, d * d, self.KRAUS)
        map_path = self.workdir / f"map{index}.json"
        map_path.write_text(inputs.map_file_text(ops))
        if command == "choi":
            return Op(f"choi_d{d}", lambda: call_cli(self.pkg, ["choi", "--map", str(map_path)]),
                      lambda result: oracles.check_choi_cli(*result, ops))
        rho = inputs.random_density(self.rng, d)
        rho_path = self.workdir / f"rho{index}.json"
        rho_path.write_text(inputs.density_file_text(rho))
        return reduce_cli_op(self.pkg, f"reduce_d{d}", ops, rho, d, keep, map_path, rho_path,
                             self.workdir / "reduced.json")


WORKLOADS = {w.name: w for w in (PaperSweep, DimLadder, DomainDiagnostics, CliFiles)}


def determinism_guard(pkg, seed: int, workdir: Path) -> list[tuple[str, bool, str]]:
    """Run one case-study sweep and one reduce twice each; outputs must be
    byte-identical and correct. Returns (name, ok, message) per rerun."""
    rng = np.random.default_rng([seed, 1])
    p = inputs.sweep_params(rng)
    ops = inputs.random_cptp(rng, 4, 2)
    rho = inputs.random_density(rng, 2)
    map_path, rho_path = workdir / "guard_map.json", workdir / "guard_rho.json"
    map_path.write_text(inputs.map_file_text(ops))
    rho_path.write_text(inputs.density_file_text(rho))
    out = workdir / "guard_out"
    results = []
    for name, op in (
        ("case-study rerun", sweep_op(pkg, p, out)),
        ("reduce rerun", reduce_cli_op(pkg, "reduce", ops, rho, 2, 1, map_path, rho_path, out)),
    ):
        try:
            seen = []
            for _ in range(2):
                result = op.run()
                op.check(result)
                seen.append((result, out.read_bytes()))
            oracles.holds("byte-identical rerun", seen[0] == seen[1])
            results.append((name, True, ""))
        except (Exception, SystemExit) as exc:  # any failure of the rerun counts as a failed op
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
    return results
