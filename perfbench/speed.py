"""Machine-speed probe.

On a shared machine the speed of one core drifts by tens of percent within
seconds, for Python and numpy work alike, so raw wall times of the same work
differ by more than any useful regression bound.  The benchmark times this
fixed kernel right before and right after each measured interval and scales
the interval by REFERENCE_S / (mean kernel time): the result is the interval
in seconds at the reference speed.  The raw wall times are reported too.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Median kernel time on a quiet core of the machine the baseline was taken on.
REFERENCE_S = 0.0023


class SpeedProbe:
    """A fixed mix of small dense solves, FFTs and interpreter work, the
    operations psdo's per-mode and per-point loops are made of."""

    def __init__(self, repeats: int = 5):
        rng = np.random.default_rng(0)
        self.repeats = repeats
        self.eye = np.eye(8)
        self.A = rng.standard_normal((8, 8)) + 8.0 * self.eye
        self.x = rng.standard_normal(256)

    def _kernel(self) -> float:
        acc = 0.0
        for k in range(24):
            B = np.linalg.inv(self.A + (k * 1e-3) * self.eye)
            acc += float(np.linalg.norm(B, 2)) + abs(np.fft.fft(self.x)[k])
            acc += sum(i * i for i in range(200)) * 1e-9
        return acc

    def seconds(self) -> float:
        """Median time of the kernel over a few back-to-back repeats."""
        times = []
        for _ in range(self.repeats):
            t0 = perf_counter()
            self._kernel()
            times.append(perf_counter() - t0)
        return statistics.median(times)

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor that converts wall seconds between two probes to reference seconds."""
        return REFERENCE_S / (0.5 * (before + after))
