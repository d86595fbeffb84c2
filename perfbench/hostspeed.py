"""Host-speed calibration for a shared, noisy host.

On a small shared VM the same run takes from 0.7 s to 1.4 s depending on
what the neighbours are doing, and that load shifts over tens of
seconds: longer than one benchmark run.  A fixed loop of interpreter and
numpy work timed right before and after each run slows down with it.
Scaling each run's wall time by ``NOMINAL_S / calibration`` reports it
in seconds of a host on which the loop takes ``NOMINAL_S``.  On a 2-core
Xeon host, raw medians of 20-second runs on five seeds spread 15-25%
(interquartile range over median); scaled medians of 25-second runs on
ten seeds spread 3-7%.

The loop imports nothing from ``repro``, so a change to the program
cannot move it.
"""

from __future__ import annotations

import heapq
import os
import random
import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

#: About the calibration loop's time on a 2-core Xeon 2.1 GHz host under
#: the benchmark's pinned environment (see ``run.PINNED_ENV``).
NOMINAL_S = 0.08


class _Item:
    __slots__ = ("key", "name", "payload")

    def __init__(self, key: int, name: str, payload: list):
        self.key = key
        self.name = name
        self.payload = payload


def calibrate(n: int = 20_000, convolutions: int = 3) -> float:
    """Seconds this host takes for a fixed mix of interpreter work
    (heap, dict, objects) and numpy work (im2col copy, matmul)."""
    x = np.linspace(-1.0, 1.0, 16 * 8 * 32 * 32).reshape(16, 8, 32, 32)
    w = np.linspace(-1.0, 1.0, 72 * 32).reshape(72, 32)
    start = time.perf_counter()
    for _ in range(convolutions):
        cols = sliding_window_view(x, (3, 3), axis=(2, 3))
        cols = cols.transpose(0, 2, 3, 1, 4, 5).reshape(-1, 72)
        np.maximum(cols @ w, 0.0).sum()
    rng = random.Random(7)
    queue: list = []
    counts: dict[str, int] = {}
    for i in range(n):
        heapq.heappush(queue, (rng.random(), i, _Item(i, f"k{i % 4096}", [i])))
        name = queue[0][2].name
        counts[name] = counts.get(name, 0) + 1
        if len(queue) > 1024:
            heapq.heappop(queue)
    return time.perf_counter() - start


def calibrate_each_cpu() -> float:
    """The slowest usable CPU's :func:`calibrate` time.

    A run spread over worker processes waits at every barrier for its
    slowest worker, so it goes at the pace of the slowest CPU, which the
    calibrating process need not be running on.
    """
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(calibrate())
    finally:
        os.sched_setaffinity(0, cpus)
    return max(times)


def scale(before_s: float, after_s: float) -> float:
    """Factor turning a wall time measured between two calibrations
    into nominal-host seconds."""
    return NOMINAL_S / ((before_s + after_s) / 2)
