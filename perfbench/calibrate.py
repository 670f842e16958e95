"""A fixed calibration kernel that reads the machine's current speed.

The shared virtual machine the benchmark was tuned on drifts between
speeds up to 1.8x apart, in stretches from under a second to about a
minute, whatever runs on it. The benchmark times this kernel between the
units it measures (steps, evaluation calls, set-ups) and scales each unit
by how fast the kernel ran around it, so a time reads as it would at
`NOMINAL_S` per kernel call. The kernel is fixed code outside `dsgc`: a
change to the program moves the units but not the kernel.

Its work is shaped like a training step on small graphs: a chain of small
numpy operations, whose cost is mostly the interpreter's and numpy's
per-call overhead, as with the tape, the encoders and the Poincaré maps.
Over a 90 s probe on the `mutag-default` graphs, the ratio of step time to
kernel time varied by 4% across 3 s windows, against 8% for the step time
alone and 10% for its ratio to a pure-Python loop.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

NOMINAL_S = 0.5e-3    # kernel seconds the scaled times are expressed at
WINDOW = 4            # kernel samples each side of a unit that set its speed


def kernel():
    """One call of fixed work; returns a value so nothing is optimised away."""
    x = np.full((20, 16), 0.01)
    w = np.eye(16) * 0.5 + 0.01
    for _ in range(40):
        x = np.tanh(x @ w + 0.1)
        n = np.sqrt((x * x).sum(axis=1, keepdims=True))
        x = x / (1.0 + n)
    return float(x.sum())


def sample():
    """(start time, seconds) of one kernel call."""
    start = time.perf_counter()
    kernel()
    return start, time.perf_counter() - start


class Speed:
    """Local kernel speed around a moment, from (start, seconds) samples."""

    def __init__(self, samples):
        self.samples = sorted(samples)
        self.at = [t for t, _ in self.samples]

    def kernel_s(self, t):
        """Median kernel time of the WINDOW samples each side of time t."""
        i = bisect.bisect_left(self.at, t)
        lo, hi = max(0, i - WINDOW), min(len(self.samples), i + WINDOW)
        return statistics.median(s for _, s in self.samples[lo:hi])

    def scale(self, seconds, t):
        """`seconds` measured at time t, as they would read at NOMINAL_S."""
        return seconds * NOMINAL_S / self.kernel_s(t)
