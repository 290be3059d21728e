"""Per-layer spans recorded from outside the package.

The tracer replaces each listed public function at every module binding
through which the package reaches it (``linalg.hermitian_eig`` is also bound
as ``channels.hermitian_eig`` and ``reduction.hermitian_eig``), records one
span per call in memory, and restores the originals on ``uninstall``. A
listed name that no longer exists is reported as missing, never fatal.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from pathlib import Path

LAYERS = {
    "linalg": ("hermitian_eig", "partial_trace"),
    "basis": ("build_hermitian_basis",),
    "reduction": (
        "c_coefficients", "b_matrix", "reduce_subsystem", "reduce_separable_ensemble",
        "reduced_domain_verdict", "correlated_probe", "factorization_check",
    ),
    "channels": (
        "completeness_defect", "apply_matrix", "choi_matrix", "choi_of_any", "cp_verdict",
        "channel_distance", "load_map_json", "dump_map_json", "load_density_json",
    ),
    "casestudy": ("composite_kraus",),
    "cli": ("main",),
    "verify": ("run_checks",),
}
LAYER_NAMES = tuple(f"{m}.{f}" for m, funcs in LAYERS.items() for f in funcs)

# The dimension-ladder path split by rung. channel_distance, the eighth
# layer of the ladder's layer list, is not on this path, so it has no split.
RUNG_LAYERS = (
    "basis.build_hermitian_basis", "reduction.c_coefficients", "reduction.b_matrix",
    "linalg.hermitian_eig", "reduction.reduce_subsystem", "channels.choi_matrix",
    "channels.cp_verdict",
)
RUNGS = (2, 3, 4, 6, 8)
WORK_LAYER = "linalg.hermitian_eig"


def per_layer_specs() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    specs = []
    for name in LAYER_NAMES:
        specs += [(f"{name}.calls", "count"), (f"{name}.self_ms", "ms")]
    specs += [(f"{layer}.d{d}.self_ms", "ms") for layer in RUNG_LAYERS for d in RUNGS]
    specs += [
        (f"{WORK_LAYER}.work_n3", "count"),
        ("trace.wall_ms", "ms"),
        ("trace.overhead_pct", "%"),
        ("trace.unattributed_pct", "%"),
    ]
    return specs


def _eig_work(args, kwargs) -> int:
    """n^3 per matrix handed to the eigensolver, times any leading batch size."""
    first = args[0] if args else kwargs.get("h")
    shape = getattr(first, "shape", None)
    if shape is None or len(shape) < 2:
        return 0
    return math.prod(shape[:-2]) * shape[-1] ** 3


class Tracer:
    """Spans are tuples (layer, start_ns, end_ns, parent span, op, rung, work)."""

    FIELDS = ("layer", "start_ns", "end_ns", "parent", "op", "rung", "work")

    def __init__(self, package: str = "subkraus"):
        self.package = package
        self.spans: list = []
        self.missing: list[str] = []
        self.op = -1
        self.rung = 0
        self.scale: dict[int, float] = {}  # op -> factor from plain to reported time
        self._stack: list[int] = []
        self._patched: list = []

    def install(self) -> None:
        prefix = self.package + "."
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == self.package or k.startswith(prefix))]
        self.missing = []
        for index, name in enumerate(LAYER_NAMES):
            module_name, func = name.split(".")
            home = sys.modules.get(prefix + module_name)
            original = getattr(home, func, None)
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self._wrap(index, original, name == WORK_LAYER)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, index: int, original, counts_work: bool):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                work = _eig_work(args, kwargs) if counts_work else 0
                spans[slot] = (index, start, end, parent, self.op, self.rung, work)

        return wrapper

    def metrics(self, passes: int, traced_ns: float, untraced_ns: float) -> dict[str, float]:
        """Per-pass layer totals; self time is a span minus its wrapped
        children, times the ``scale`` of the span's op (default 1)."""
        n = len(LAYER_NAMES)
        calls = [0] * n
        self_ns = [0.0] * n
        rung_ns: dict[tuple[int, int], float] = {}
        work = 0
        child_ns = [0] * len(self.spans)
        for layer, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for slot, (layer, start, end, _, op, rung, w) in enumerate(self.spans):
            own = (end - start - child_ns[slot]) * self.scale.get(op, 1.0)
            calls[layer] += 1
            self_ns[layer] += own
            rung_ns[layer, rung] = rung_ns.get((layer, rung), 0) + own
            work += w
        out: dict[str, float] = {}
        for i, name in enumerate(LAYER_NAMES):
            out[f"{name}.calls"] = calls[i] // passes if calls[i] % passes == 0 else calls[i] / passes
            out[f"{name}.self_ms"] = self_ns[i] / passes / 1e6
        for layer in RUNG_LAYERS:
            i = LAYER_NAMES.index(layer)
            for d in RUNGS:
                out[f"{layer}.d{d}.self_ms"] = rung_ns.get((i, d), 0) / passes / 1e6
        out[f"{WORK_LAYER}.work_n3"] = work // passes if work % passes == 0 else work / passes
        out["trace.wall_ms"] = traced_ns / passes / 1e6
        out["trace.overhead_pct"] = 100.0 * (traced_ns - untraced_ns) / untraced_ns
        out["trace.unattributed_pct"] = 100.0 * (traced_ns - sum(self_ns)) / traced_ns
        return out

    def dump(self, path: Path) -> None:
        doc = {"layers": LAYER_NAMES, "missing": self.missing, "fields": self.FIELDS,
               "op_scale": self.scale, "spans": self.spans}
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
