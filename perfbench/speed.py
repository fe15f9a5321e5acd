"""Rescale timings to a reference CPU speed.

The benchmark runs on a shared, throttled CPU whose speed swings by up
to 2x over a few seconds: the same table1 run takes 15 s or 24 s.  A
median over the few runs that fit in a budget cannot hide that, so every
timed region is paused every PERIOD_S seconds (SIGALRM) to time a fixed
snippet of small-array numpy calls, the same kind of dispatch-bound
work the library does per step.  A region's time at reference speed is
its own time, without the pauses, times REFERENCE_S over the mean
snippet time inside it.  Work added to the program still shows in full,
because the snippet does not run any of it.

On a 2-vCPU Xeon at 2.0 GHz, ten runs of each workload spread by 3.1 %
(run-ex1), 1.9 % (table1) and 4.5 % (checks) between their quartiles
after rescaling; five raw table1 runs had spread by 34 %.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.05
# Snippet time at full speed on the machine above; it only sets the unit.
REFERENCE_S = 1.0e-3
_X = np.array([0.3, 0.2])


def snippet() -> None:
    for _ in range(150):
        np.stack((_X[..., 1] + np.sin(_X[..., 1]), -2.0 * _X[..., 0]), axis=-1)


class SpeedSampler:
    """Samples the snippet's time every PERIOD_S seconds while running."""

    def __init__(self):
        self.at: list = []
        self.took: list = []

    def _sample(self, signum=None, frame=None):
        t0 = time.monotonic()
        snippet()
        self.at.append(t0)
        self.took.append(time.monotonic() - t0)

    def start(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def rescale(self, t0: float, t1: float) -> tuple:
        """(raw seconds without pauses, seconds at reference speed) of the
        region [t0, t1] of time.monotonic()."""
        took = [d for a, d in zip(self.at, self.took) if t0 <= a < t1]
        raw = t1 - t0 - sum(took)
        if not took:
            self._sample()
            took = self.took[-1:]
        return raw, raw * REFERENCE_S / (sum(took) / len(took))
