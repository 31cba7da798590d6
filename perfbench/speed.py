"""Times at a nominal machine speed.

On a shared host the speed of the same Python code drifts by 10-25% over
seconds to minutes, far more than the changes the benchmark has to see.
So between the timed calls a run keeps timing one fixed reference
workload, about every EVERY_S seconds, and scales each timed call by
NOMINAL_S / (median of the reference times nearest to it). A time reported
by the benchmark is therefore how long the call would have taken had the
reference taken NOMINAL_S, which is about what it takes on a quiet 2-core
x86-64 host under CPython 3.11.

Contention slows object-heavy code more than arithmetic, so the
reference has two halves: small-integer arithmetic, and building and
reading a dict of tuples. With the arithmetic alone, about a fifth of a
slowdown of the remark-survey workload was left in its scaled time; with
both halves, about a twentieth. The dict is built with the cyclic garbage
collector paused and freed before it resumes, so the collector's schedule
for the program is unchanged.
"""

from __future__ import annotations

import gc
import statistics
from bisect import bisect_right
from time import perf_counter

REF_LOOPS = 10_000
REF_ENTRIES = 2_500
NOMINAL_S = 0.002
EVERY_S = 0.04
# reference samples per scale factor: the three before a call, two after
WINDOW_BEFORE = 3
WINDOW_AFTER = 2


def reference() -> float:
    """Seconds one run of the reference workload takes now."""
    start = perf_counter()
    s = 0
    for i in range(REF_LOOPS):
        s += i * i % 7
    enabled = gc.isenabled()
    gc.disable()
    try:
        table = {}
        for i in range(REF_ENTRIES):
            table[(i, i % 13)] = (i, str(i % 97))
        for key, value in table.items():
            s += value[0] + key[1]
        del table
    finally:
        if enabled:
            gc.enable()
    return perf_counter() - start


class SpeedLog:
    """Reference times taken while a pass runs, by when they were taken."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.refs: list[float] = []

    def sample(self) -> None:
        self.times.append(perf_counter())
        self.refs.append(reference())

    def maybe_sample(self) -> None:
        """Sample unless the last sample is more recent than EVERY_S."""
        if not self.times or perf_counter() - self.times[-1] >= EVERY_S:
            self.sample()

    def scale_at(self, t: float) -> float:
        """Factor that turns a time measured at t into nominal-speed time."""
        k = bisect_right(self.times, t)
        window = self.refs[max(0, k - WINDOW_BEFORE) : k + WINDOW_AFTER]
        return NOMINAL_S / statistics.median(window)
