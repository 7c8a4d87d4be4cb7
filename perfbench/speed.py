"""Contention-corrected timing.

The benchmark host shares its cores with other tenants. The same round of
work takes anywhere from 1x to 1.9x its quiet time, the slow spells last
from under a second to tens of seconds, and CPU time inflates with wall
time, so neither more repetition within a run nor CPU time makes the
figures steady. While it runs, a Speedometer interrupts the process
every INTERVAL_S seconds to time a fixed reference kernel. REF_S divided
by a kernel time is the host's speed at that moment, and an interval's
corrected time is its wall time, minus the kernel's own time, multiplied
by the mean speed over the interval (the fastest and slowest tenth of
the samples dropped). Corrected seconds estimate the wall time on a
quiet host.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.04
# the kernel's time on a quiet host: Python 3.11, numpy 2.4, 2-core x86-64
REF_S = 0.65e-3


class Speedometer:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (start, kernel seconds)
        self._x = np.random.default_rng(0).random(300)

    def _kernel(self) -> float:
        # interpreter work and small-array numpy work, the mix copgof runs
        acc = 0.0
        x = self._x
        for i in range(100):
            acc += float((np.log1p(x * (i + 1)) - np.sqrt(x)).sum())
            for j in range(20):
                acc += (j * 0.5) % 3.0
        return acc

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def speed(self, t0: float, t1: float) -> float:
        """Mean speed over the wall interval [t0, t1) relative to a quiet
        host, the fastest and slowest tenth of the samples dropped."""
        ks = sorted(k for start, k in self.samples if t0 <= start < t1)
        cut = len(ks) // 10
        return REF_S * statistics.fmean(1.0 / k for k in ks[cut:len(ks) - cut])

    def corrected(self, t0: float, t1: float) -> float:
        """Corrected seconds of the wall interval [t0, t1) of this process."""
        kernel = sum(k for start, k in self.samples if t0 <= start < t1)
        return (t1 - t0 - kernel) * self.speed(t0, t1)
