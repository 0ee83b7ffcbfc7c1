"""Host speed probe: a fixed kernel timed between operations.

The CPUs this benchmark runs on are shared, and their speed for the same
work drifts by up to about 30% over tens of seconds (fixed work took
20 to 29 ms per 2 s window, with process CPU time tracking wall time, so
the loss is inside the CPU and not time stolen from the process).  No
median inside one run removes a drift that lasts the whole run, so every
timed interval is also scaled to a reference speed: the probe times a
fixed kernel of small-matrix numpy calls and Python bytecode, the same mix
surfrep spends its time on, at least every `interval` seconds, and an
interval that took `t` seconds while the kernel took `k` is reported as
`t * REFERENCE_KERNEL_S / k`, with `k` the median of the probes taken
around it.  The probe measures the process it runs in, so only work done
in that process is scaled.  The raw times stay in the report.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Median kernel time on the host the baseline was recorded on
# (Xeon, 2 vCPUs, Python 3.11, numpy 2.4); it only fixes the unit.
REFERENCE_KERNEL_S = 0.0090

_RNG = np.random.default_rng(12345)
_A = _RNG.standard_normal((3, 3)) + 1j * _RNG.standard_normal((3, 3))
_B = _RNG.standard_normal((3, 3)) + 1j * _RNG.standard_normal((3, 3))


def kernel(steps: int = 300) -> float:
    m = _A
    acc = 0.0
    for i in range(steps):
        m = m @ _B
        m = m / np.linalg.norm(m)
        acc += abs(complex(np.trace(m))) + sum(j * 0.5 for j in range(6))
        acc += float(np.linalg.svd(m, compute_uv=False)[0])
    return acc


class SpeedProbe:
    def __init__(self, interval: float = 0.25, window: float = 1.0):
        self.interval = interval
        self.window = window
        self.at = []                 # end time of each probe
        self.cost = []               # its duration

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.at.append(t1)
        self.cost.append(t1 - t0)

    def maybe_sample(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= self.interval:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_KERNEL_S over the median probe time around [start, end]."""
        lo = bisect.bisect_left(self.at, start - self.window)
        hi = bisect.bisect_right(self.at, end + self.window)
        near = self.cost[lo:hi]
        if len(near) < 2:                     # too few: the nearest two on each side
            i = bisect.bisect_left(self.at, start)
            near = self.cost[max(i - 2, 0):i + 2]
        return REFERENCE_KERNEL_S / statistics.median(near)

    def summary(self) -> dict:
        return {"probes": len(self.cost), "kernel_median_s": statistics.median(self.cost),
                "kernel_min_s": min(self.cost), "kernel_max_s": max(self.cost),
                "reference_kernel_s": REFERENCE_KERNEL_S}
