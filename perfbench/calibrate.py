"""Timings in reference units, so that slow spells of a shared host cancel.

On a shared host the same code runs 1.5 to 1.9 times slower for seconds,
sometimes minutes, at a time, while co-tenants load the shared cores; a
run's medians then depend on how much of it fell in such spells. So a
fixed reference kernel (small numpy calls and Python arithmetic, no
package code) is timed right before and right after every measured call,
and the call's time is divided by the mean of the two and multiplied by
``REF_NS``. A reported millisecond is thus the time the call takes on a
core where the kernel takes ``REF_NS``, which it does on an uncontended
core of the 2-CPU Xeon host the benchmark's bounds were set on. The plain
times are kept alongside.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

REF_NS = 360_000
_REF = np.exp(2j * np.pi * np.arange(16).reshape(4, 4) / 7) / 4


def reference_ns() -> int:
    """Time the reference kernel once."""
    start = time.perf_counter_ns()
    m, acc = _REF, 0.0
    for i in range(50):
        m = (m @ _REF) / np.abs(m).max()
        acc += float(np.trace(m).real) + (i % 7) * 0.5
    return time.perf_counter_ns() - start


@dataclass(frozen=True)
class Sample:
    kind: str
    ns: int
    ref_before: int
    ref_after: int

    @property
    def normalized_ns(self) -> float:
        return self.ns * 2 * REF_NS / (self.ref_before + self.ref_after)


class Sampler:
    def __init__(self):
        self.samples: list[Sample] = []

    def add(self, kind: str, ns: int, ref_before: int, ref_after: int) -> None:
        self.samples.append(Sample(kind, ns, ref_before, ref_after))

    def ops(self, prefix: str, normalized: bool = True) -> tuple[float, float, float]:
        """(ops per second, median ms, 90th percentile ms) over the calls
        whose kind starts with ``prefix``."""
        ms = np.array([s.normalized_ns if normalized else s.ns
                       for s in self.samples if s.kind.startswith(prefix)]) / 1e6
        return len(ms) / (ms.sum() / 1e3), float(np.percentile(ms, 50)), float(np.percentile(ms, 90))

    def setup_seconds(self, prefix: str) -> float:
        """Sum over set-up steps of each step's median time across set-ups."""
        steps: dict[str, list[float]] = {}
        for s in self.samples:
            if s.kind.startswith(prefix):
                steps.setdefault(s.kind, []).append(s.normalized_ns)
        return sum(statistics.median(v) for v in steps.values()) / 1e9
