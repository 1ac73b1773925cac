"""Machine-speed sampling, so timings survive a shared, drifting host.

On a shared VM other tenants can slow this process by up to a factor of
two.  The slowdown shows in process CPU time as well as wall time, and it
applies alike to hml and to other interpreter-bound numpy code.  It comes
and goes within seconds, so kernel times are bimodal, and the share of
slow samples is what sets a run's pace.
``SpeedMeter`` therefore times a fixed reference kernel (small einsums in a
Python loop, the same mix hml runs) at every analysis boundary and, while
the meter is entered, every ``INTERVAL_S`` from a SIGALRM timer.  Every
time of a run is divided by the run's mean kernel time relative to
``KERNEL_NOMINAL_S``: the result is the time it would take on this machine
while the kernel runs at its nominal speed.  Kernel time spent inside a
timed interval is subtracted from it first.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.5
# Reference kernel time on an uncontended 2-vCPU Xeon VM (Python 3.11,
# numpy 2.4); it fixes the unit of the normalized times.
KERNEL_NOMINAL_S = 0.004

_A = np.arange(64.0).reshape(4, 4, 4)


def kernel() -> float:
    s = 0.0
    for i in range(1500):
        b = np.einsum("ijk,k->ij", _A, _A[i % 4, 0])
        s += float(b[1, 2]) * 1e-9 + (i % 7)
    return s


class SpeedMeter:
    """Samples kernel time; use as a context manager to run the timer."""

    def __init__(self):
        self.samples = []          # kernel seconds, in time order
        self.kernel_total = 0.0
        self._busy = False
        self._old_handler = None

    def sample(self):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        kernel()
        k = time.perf_counter() - t0
        self.samples.append(k)
        self.kernel_total += k
        self._busy = False

    def _on_alarm(self, signum, frame):
        self.sample()

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def mark(self) -> tuple:
        """Sample, then note where an interval to be timed starts."""
        self.sample()
        return self.kernel_total, time.perf_counter()

    def since(self, mark: tuple) -> float:
        """Wall seconds since ``mark``, kernel time excluded."""
        t1 = time.perf_counter()
        k0, t0 = mark
        wall = (t1 - t0) - (self.kernel_total - k0)
        self.sample()
        return wall

    def factor(self) -> float:
        """How much slower than nominal the machine ran, over the run."""
        return statistics.fmean(self.samples) / KERNEL_NOMINAL_S
