"""Host-speed sampling: a fixed kernel timed while the workload runs.

The shared hosts this benchmark runs on change speed by up to 2x over
seconds to minutes, with CPU time tracking wall time, so runs a minute
apart disagree however long each one is.  A kernel timed while the
interval runs sees the same host speed as the interval.  Timed
intervals are scaled by the host's speed relative to a host where one
sample of the kernel takes ``SAMPLE_REF_S``, which gives *reference
seconds*.

``Sampler`` measures the speed through an interval: every
``INTERVAL_S`` a SIGALRM handler times one sample, and the
interval's work in reference seconds is its wall time, less the samples'
own time, times the mean sampled speed.

The kernel is error-free float64 arithmetic (two-sum and Dekker's
split, the building blocks of double-double) on numpy arrays of the
two sizes the workloads use: 48 elements, where call overhead
dominates as in the small DD systems, and 1024, where the elementwise
work does as in the wide mat-vecs.  It calls nothing in krybound, so a
change to the program moves reference seconds as it moves wall time.
"""

import signal
import statistics
import time

import numpy as np

# wall seconds one sample takes on the reference host (2 vCPU Intel
# Xeon, Python 3.11, numpy 2.4, in its usual state); a constant
SAMPLE_REF_S = 0.008
# the sampler takes one sample every INTERVAL_S of wall time
INTERVAL_S = 0.25
SPLIT = 134217729.0     # 2**27 + 1


def kernel():
    """One sample's fixed arithmetic; returns a checksum so nothing is
    skipped."""
    total = 0.0
    for n, steps in ((48, 400), (1024, 50)):
        x = np.linspace(1.0, 2.0, n)
        y = x[::-1].copy()
        for _ in range(steps):
            s = x + y                       # two-sum
            bb = s - x
            e = (x - (s - bb)) + (y - bb)
            c = SPLIT * x                   # Dekker split
            hi = c - (c - x)
            lo = x - hi
            x = (s + e) * 0.5 + lo * 1e-30
            y = np.sqrt(x * y) + hi * 1e-30
        total += float(x.sum() + y.sum())
    return total


def sample():
    """(host speed, wall seconds) of one kernel call; speed is reference
    seconds per wall second."""
    t0 = time.perf_counter()
    kernel()
    dt = time.perf_counter() - t0
    return SAMPLE_REF_S / dt, dt


class Sampler:
    """Samples host speed while a timed interval runs (main thread only).

    ``with Sampler() as sp: ...`` then ``sp.to_ref(wall_s)``, where
    ``wall_s`` is the interval's wall time, sampling included.
    """

    def __init__(self):
        self.speeds = []        # reference seconds per wall second
        self.spent_s = 0.0      # wall time inside the handler

    def _tick(self, signum, frame):
        speed, dt = sample()
        self.speeds.append(speed)
        self.spent_s += dt

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.speeds:     # shorter than INTERVAL_S: sample after it
            self.speeds.append(sample()[0])
        return False

    def to_ref(self, wall_s):
        """Reference seconds of the interval."""
        return (wall_s - self.spent_s) * statistics.fmean(self.speeds)
