"""Speed reference: a fixed exact-arithmetic kernel timed between the ops.

The shared vCPUs of the reference machine change speed by up to 2x, in
phases that last from seconds to many minutes, so raw wall times of one
commit differ by that much between two sets of runs.  The benchmark
therefore times this kernel between the ops of each pass and scales the
pass's timings by the kernel's speed over it:

    reported = measured * KERNEL_REF_S / mean kernel seconds

``KERNEL_REF_S`` is the kernel's time on the reference machine at full
speed, so every figure reads as seconds on that machine at full speed.
The kernel is a shortest-path closure over a fixed matrix of ``Fraction``
weights, pure-Python exact arithmetic like the work that dominates
``unimet``, and it never calls the program under test: no change to the
program moves it.
"""
from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

from workloads import closure

# Kernel seconds on the reference machine at full speed (2.0 GHz Xeon vCPU,
# Python 3.11.7).
KERNEL_REF_S = 0.0057
# Kernel time kept at this share of the time it calibrates.
SHARE = 0.1

_rng = random.Random("speed")
_MATRIX = [[Fraction(_rng.randint(1, 8), 8) for _ in range(14)] for _ in range(14)]


def kernel_seconds() -> float:
    start = time.perf_counter()
    closure(_MATRIX)
    return time.perf_counter() - start


class SpeedMeter:
    """Kernel samples spread over a stretch of measured work.

    ``after(seconds)`` is called after each measured piece of work and runs
    the kernel until the kernel has taken ``SHARE`` of the measured time, so
    the samples follow the machine's speed over the whole stretch.
    """

    def __init__(self):
        self.samples = [kernel_seconds()]
        self.work = 0.0

    def after(self, seconds: float) -> None:
        self.work += seconds
        while sum(self.samples) < SHARE * self.work:
            self.samples.append(kernel_seconds())

    def factor(self) -> float:
        """Reference seconds per measured second over the stretch."""
        return KERNEL_REF_S / statistics.fmean(self.samples)
