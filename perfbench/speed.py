"""Machine-speed calibration for timings taken on shared hardware.

The 2-vCPU Intel Xeon virtual machine this benchmark was tuned on swings
between about 1.0x and 2x its fastest time per unit of work, in spells of a
few seconds, whatever runs on it.  So every timing is scaled by ``NOMINAL_S`` over the
time a fixed calibration kernel takes around and, for long in-process
operations, during it.  ``NOMINAL_S`` is the kernel's fastest time on that
machine (Python 3.11, numpy 2.4); there, scaled times read as wall-clock
times on an uncontended machine.  Unscaled times are reported alongside.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

import numpy as np

NOMINAL_S = 0.45e-3
EVERY_S = 0.1
WINDOW_S = 1.0      # samples this close to an operation also count for it
MIN_INSIDE = 3
_MATRIX = np.array([[1.1, 0.1], [0.1, 2.1]])
_OPERATOR = np.exp(1j * np.arange(16.0)).reshape(4, 4)
_VECTOR = np.ones(4, dtype=complex)


def kernel_s() -> float:
    """Median of five runs of a fixed mix of interpreter work, small LAPACK
    calls and small complex array arithmetic: the mix geomstates spends its
    time on."""
    runs = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(2000):
            acc += i * i
        for _ in range(15):
            np.linalg.eigvalsh(_MATRIX)
        z = _VECTOR
        for _ in range(40):
            z = 0.5 * (z + _OPERATOR @ z) / np.linalg.norm(z)
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs)


class Calibration:
    """Kernel times with their clock readings.

    ``between()`` takes one when EVERY_S has passed since the last.
    ``during()`` wraps an in-process operation: a timer takes one every
    EVERY_S while it runs, and ``paused`` accumulates the time they took so
    the caller can subtract it.  ``scale(t0, t1)`` is the factor for an
    operation that ran from t0 to t1.
    """

    def __init__(self, sample: bool = True):
        self.sample = sample
        self.times = []
        self.values = []
        self.paused = 0.0

    def take(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        value = kernel_s()
        self.times.append(t0)
        self.values.append(value)
        self.paused += time.perf_counter() - t0

    def between(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] > EVERY_S:
            self.take()

    @contextlib.contextmanager
    def during(self):
        if not self.sample:
            yield
            return
        previous = signal.signal(signal.SIGALRM, self.take)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, t0: float, t1: float) -> float:
        """The factor for an operation that ran from t0 to t1.

        With at least MIN_INSIDE samples taken during it, the operation is
        long enough to span several speed spells, and the factor is its
        mean speed: the mean of NOMINAL_S over their kernel times.
        Otherwise it is NOMINAL_S over the median kernel time of the samples
        within WINDOW_S of the operation, and at least the last one before
        it and the first one after it.  The median ignores the odd sample
        slowed by a process exit or a spinning BLAS thread."""
        lo, hi = bisect.bisect_left(self.times, t0), bisect.bisect_right(self.times, t1)
        if hi - lo >= MIN_INSIDE:
            return statistics.fmean(NOMINAL_S / v for v in self.values[lo:hi])
        lo = min(bisect.bisect_left(self.times, t0 - WINDOW_S), lo - 1)
        hi = max(bisect.bisect_right(self.times, t1 + WINDOW_S), hi + 1)
        return NOMINAL_S / statistics.median(self.values[max(lo, 0):hi])

    def speeds(self) -> list:
        return [NOMINAL_S / v for v in self.values]
