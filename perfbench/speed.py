"""Host-speed calibration: a fixed numpy kernel, timed between ops, that
scales measured times to the speed of the reference machine.

The reference machine (2 vCPUs of a shared 2.0 GHz Xeon host) runs a
process on a CPU whose speed switches between a fast and a slow state,
about 1.8x apart, in stretches of a few seconds to over a minute.  A
whole run can fall inside one slow stretch, so no estimator over the
run's own repetitions removes it (README.md, "Host speed").

Two probes, each the same kind of work as the ops it scales, because
the slow state slows small Python-driven numpy work far more than large
LAPACK calls (about 1.7x against 1.3x):

* ``SpeedProbe``: small dense numpy work (6x6 SVD, product, elementwise
  reduce), like a claim trial or the import of ``pirep``.  In a 300 s
  trace of repeated claim trials with a probe every 0.25 s, 30 s windows
  had a throughput spread (IQR over median) of 0.18 unscaled and 0.04
  scaled, while the trial time moved 2x.
* ``WideProbe``: one SVD of a 217 x 1200 matrix, like the SVDs of wide
  lifts that take most of a large-window case.  In a 240 s trace of
  large-window cases with both probes before every case, runs of three
  rounds (fastest repetition of each case) had a log-throughput SD of
  0.081 unscaled, 0.066 scaled by the small probe and 0.021 scaled by
  this one.

A time ``t`` measured over ``[start, end]`` is reported as
``t * reference_s / probe``, where ``probe`` is the median probe sample
within ``WINDOW_S`` of the interval.  ``reference_s`` is a constant, so
the figures are seconds of the reference machine in its fast state, and a
change to ``pirep`` moves them exactly as it moves the unscaled times.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

clock = time.perf_counter

KERNEL_REPS = 100  # one small kernel call is about 2 ms on the reference machine
EVERY_S = 0.25  # run time between probes
WINDOW_S = 0.5  # probes this far either side of an interval count for it


class SpeedProbe:
    """Probe samples taken through a run, and the factor that scales a
    time measured in it to the reference machine."""

    reference_s = 2.2e-3  # a probe sample on the reference machine, fast state
    best_of = 3  # a probe sample is the fastest of this many kernel calls

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((6, 6))
        self._eye = np.eye(6)
        self.times: list = []
        self.values: list = []
        self.spent = 0.0  # run time taken by probing
        self._next = 0.0

    def _kernel(self) -> float:
        a, eye = self._a, self._eye
        acc = 0.0
        for _ in range(KERNEL_REPS):
            _, sv, _ = np.linalg.svd(a)
            acc += float(np.abs(a @ a.conj().T - eye).max()) + float(sv[0])
        return acc

    def sample(self):
        t0 = clock()
        best = float("inf")
        for _ in range(self.best_of):
            s = clock()
            self._kernel()
            best = min(best, clock() - s)
        end = clock()
        self.times.append((t0 + end) / 2)
        self.values.append(best)
        self.spent += end - t0
        self._next = end + EVERY_S

    def maybe_sample(self):
        """Sample if EVERY_S has passed since the last sample."""
        if clock() >= self._next:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """reference_s over the median probe within WINDOW_S of
        [start, end], or of the nearest probe if none is that close."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        near = self.values[lo:hi]
        if not near:
            i = min(range(len(self.times)), key=lambda j: abs(self.times[j] - (start + end) / 2))
            near = [self.values[i]]
        return self.reference_s / statistics.median(near)

    def relative_speeds(self) -> list:
        return [self.reference_s / v for v in self.values]


class WideProbe(SpeedProbe):
    """The probe for LAPACK-bound ops: one reduced SVD of a 217 x 1200
    matrix (217 is the largest H of the large-window cases)."""

    reference_s = 32e-3
    best_of = 1

    def __init__(self):
        super().__init__()
        self._wide = np.random.default_rng(0).standard_normal((217, 1200))

    def _kernel(self) -> float:
        _, sv, _ = np.linalg.svd(self._wide, full_matrices=False)
        return float(sv[0])
