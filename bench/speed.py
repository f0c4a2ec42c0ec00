"""Machine-speed calibration for the timings.

The benchmark runs on shared machines whose speed drifts by 20 % and more
within a minute, for every process alike.  A fixed pure-Python kernel
(integer loop, bigint and Fraction arithmetic, float math, none of it from
the program) is timed next to the measured work, and each measured time is
reported at the reference speed: multiplied by ``REFERENCE_S`` over the
kernel's time at that moment.  A change to the program cannot change the
kernel, so the scaled times still move one for one with the program's cost.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.006  # about the kernel's time on a 2-vCPU Intel Xeon virtual machine, Python 3.11
REPEATS = 3


def _kernel() -> None:
    total = 0
    for i in range(30000):
        total += i * i % 7
    frac = Fraction(0)
    for i in range(1, 300):
        frac += Fraction(1, 2 * i + 1)
    big = 3**3000
    for _ in range(150):
        big = big * 1234567 // 7
    acc = 0.0
    for i in range(20000):
        acc += math.sqrt(i)


def kernel_time() -> float:
    """Median seconds of a few kernel runs: the machine's current slowness."""
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        _kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


def factor(before: float, after: float) -> float:
    """Scale for work measured between two kernel timings."""
    return REFERENCE_S / (0.5 * (before + after))
