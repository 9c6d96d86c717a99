"""Machine-speed calibration for the benchmark's times.

The benchmark's host is shared: the same pure-Python loop runs up to a
third slower in one minute than in the next, and the drift lasts longer
than a run, so raw times of two runs differ by more than any change worth
measuring.  Every timed interval is therefore bracketed by
:func:`kernel_s`, a fixed pure-Python kernel (dict, tuple and integer
work; no program code, so no change to the program can speed it up), and
reported *at reference speed*: ``raw_s * REFERENCE_S / kernel time``
around it.  Raw times stay in each run's result record.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Sequence

#: what :func:`kernel_s` takes at reference speed; normalized times are
#: seconds on a machine where the kernel takes exactly this long
REFERENCE_S = 0.005


def kernel_s() -> float:
    """Median wall time of three runs of the calibration kernel, with the
    cyclic garbage collector paused so the program's heap size cannot
    leak into the reading."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            table = {}
            for i in range(8000):
                table[(i * 7919) % 10007, i & 7] = i
            total = 0
            for key in sorted(table):
                total += table[key]
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def at_reference(raw_s: float, kernels: Sequence[float]) -> float:
    """``raw_s`` at reference speed, given the kernel times around it
    (their median stands for the machine's speed over the interval)."""
    return raw_s * REFERENCE_S / statistics.median(kernels)
