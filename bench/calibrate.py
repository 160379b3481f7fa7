"""Machine-speed calibration.

The machines this benchmark runs on are shared.  Their speed drifts by
20-30 % over seconds to minutes, and no number of passes averages that out
of a 36-second run.  So after every timed call the benchmark runs a fixed
kernel of its own, and a call's seconds are scaled by

    REFERENCE_S / median(kernel times of the WINDOW calls on either side)

so they read as seconds at the speed where the kernel takes REFERENCE_S.
One kernel time is itself noisy; the median over a window follows the
drift without adding that noise.  The kernel mixes what the package spends
its time on: Python integers, tuples and dicts, `Fraction` arithmetic, and
numpy int64 row elimination modulo a prime.

The kernel does not touch ringkakeya, so a change to the package leaves the
kernel's time alone and shows in full in the scaled seconds.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# kernel seconds at the reference speed: its median on a 2-vCPU x86-64
# Linux container, Python 3.11, numpy 2.4
REFERENCE_S = 0.015
WINDOW = 8

_BLOCK = np.arange(40_000, dtype=np.int64).reshape(200, 200) % 7


def kernel_seconds() -> float:
    gc.collect()
    t0 = time.perf_counter()
    acc: dict = {}
    s = 0
    for i in range(20_000):
        key = (i, i * 3 % 11)
        acc[key] = acc.get(key, 0) + i
        s += i * i % 7
    f = Fraction(0)
    for i in range(1, 300):
        f += Fraction(i % 5, i)
    B = _BLOCK.copy()
    for r in range(30):
        B[r + 1:] = (B[r + 1:] - np.outer(B[r + 1:, r], B[r])) % 7
    return time.perf_counter() - t0


@dataclass(frozen=True)
class Timing:
    raw: float    # seconds as measured
    kernel: int   # index of the kernel run right after the call


class Clock:
    """Times calls; scales them once the kernels around them are known."""

    def __init__(self):
        self.kernels = [kernel_seconds()]

    def time(self, fn, *args):
        """(fn(*args), Timing of the call)."""
        gc.collect()
        t0 = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - t0
        self.kernels.append(kernel_seconds())
        return result, Timing(raw, len(self.kernels) - 1)

    def factor(self, t: Timing) -> float:
        window = self.kernels[max(0, t.kernel - WINDOW):t.kernel + WINDOW]
        return REFERENCE_S / statistics.median(window)

    def scaled(self, t: Timing) -> float:
        return t.raw * self.factor(t)
