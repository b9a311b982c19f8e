"""Machine speed over a run, from a fixed calibration kernel.

A shared host slows a process by 25-50% for seconds to minutes at a time, and
the slow spells hit a pure-Python kernel and bezmerge alike. Speed.sample()
times a fixed kernel that does not use bezmerge (small numpy products and a
Python loop, the mix bezmerge runs); Speed.scale(t) is REFERENCE_S over the
median kernel time within WINDOW_S of time t. A wall time multiplied by its
scale reads as the time at the reference speed: the kernel's own speed when
the host is quiet. Work the program does moves the scaled figure as it moves
the wall time; the host's spells move it much less.
"""

import bisect
import statistics
import time

import numpy as np

# Kernel time at the reference speed: about its time on a quiet core of a
# 2-vCPU x86-64 host (Python 3.11, numpy 2.4). Only fixes the scale's unit.
REFERENCE_S = 0.003
# Scales use the samples within this many seconds of a timed event.
WINDOW_S = 1.5
# Seconds between samples taken by Speed.tick().
INTERVAL_S = 0.2

_MATRIX = np.random.default_rng(0).random((17, 17))


def kernel() -> float:
    a = _MATRIX
    acc = 0.0
    for i in range(200):
        acc += float(np.cumsum(a @ a.T, axis=0)[-1, -1])
        for j in range(17):
            acc += a[j, (i + j) % 17] * 0.5
        acc += sum([x * 1.0001 for x in range(60)])
    return acc


class Speed:
    def __init__(self):
        self.times = []
        self.costs = []
        self._next = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.times.append(0.5 * (t0 + t1))
        self.costs.append(t1 - t0)
        self._next = t1 + INTERVAL_S

    def tick(self) -> None:
        """Take a sample if INTERVAL_S has passed since the last one."""
        if time.perf_counter() >= self._next:
            self.sample()

    def scale(self, t: float) -> float:
        """REFERENCE_S over the median kernel time near perf_counter time t."""
        lo = bisect.bisect_left(self.times, t - WINDOW_S)
        hi = bisect.bisect_right(self.times, t + WINDOW_S)
        if lo == hi:  # no sample in the window: the nearest one
            lo = min(range(len(self.times)), key=lambda i: abs(self.times[i] - t))
            hi = lo + 1
        return REFERENCE_S / statistics.median(self.costs[lo:hi])
