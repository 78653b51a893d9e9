"""Machine-speed calibration for timings taken on a shared host.

On a shared machine the same work can run 20-50 % slower for seconds at a
time (identical batches of a dpsurgery builtin spread by 14-36 % between
quartiles, and the import time of a fresh process moved with them).  The
benchmark therefore runs a fixed pure-Python kernel, which shares no code
with dpsurgery, every ``INTERVAL_S`` seconds between requests, and scales
each timing by ``REFERENCE_S`` over the kernel time measured around it.
Timings are reported in reference seconds: what they would be on a host
where the kernel takes ``REFERENCE_S``.  A change to dpsurgery moves the
timings and not the kernel.
"""

from __future__ import annotations

import bisect
import gc
from time import perf_counter

REFERENCE_S = 0.002
INTERVAL_S = 0.25


def kernel() -> float:
    """Seconds taken by one fixed pass of dict, tuple and integer work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        table: dict[int, int] = {}
        acc = 0
        for i in range(6000):
            key = (i * 7919) % 1009
            table[key] = table.get(key, 0) + i
            acc ^= (i * i) >> 3
        table[-1] = acc
        sorted(table.items(), key=lambda item: (item[1], item[0]))
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Calibration:
    """Kernel samples taken during a run, and timings scaled by them."""

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []

    def sample(self):
        self.times.append(perf_counter())
        self.samples.append(kernel())

    def maybe_sample(self):
        if not self.times or perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean of the kernel samples just before and after."""
        i = bisect.bisect_right(self.times, start)
        j = bisect.bisect_left(self.times, end)
        near = self.samples[max(i - 1, 0):i] + self.samples[j:j + 1]
        if not near:
            near = self.samples[-1:]
        return REFERENCE_S * len(near) / sum(near)
