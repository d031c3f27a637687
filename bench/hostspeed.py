"""The host's speed at each moment of a run, timed by a fixed piece of work.

The benchmark shares its host, whose speed drifts by up to a factor of two
over seconds to minutes.  While cases run, a timer signal times ``work()``
every quarter of a second, inside long cases too.  ``work()`` does the
kind of work jetform does (``Fraction`` arithmetic, dicts keyed by tuples)
but runs none of jetform's code.  A case's time leaves out the samples
taken inside it and is scaled by ``REFERENCE_S`` over the mean time of the
samples around it: a scaled time is the time the case takes on a host that
does ``work()`` in ``REFERENCE_S`` seconds.  The unscaled times stay in the
run's report.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction

REFERENCE_S = 0.015
INTERVAL_S = 0.25
# samples this close to a case count for it, which evens out the jitter of
# single samples; the host's speed moves over seconds
MARGIN_S = 0.5


def work():
    acc, seen = Fraction(0), {}
    for i in range(1, 1500):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
        key = (i % 97, i % 13)
        seen[key] = seen.get(key, 0) + 1
    return acc, seen


class HostSpeed:
    """Samples of ``work()``, taken on demand and, between ``start()`` and
    ``stop()``, every ``INTERVAL_S`` from a timer signal."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.at = []      # middle of each sample
        self.took = []    # seconds each sample took
        self._sampling = False
        self._handler = None

    def sample(self):
        if self._sampling:  # a timer signal that came during a sample
            return
        self._sampling = True
        enabled = gc.isenabled()
        gc.disable()  # the same work whatever jetform left on the heap
        try:
            t0 = self.clock()
            work()
            t1 = self.clock()
        finally:
            if enabled:
                gc.enable()
            self._sampling = False
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)

    def start(self):
        self._handler = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def taken_within(self, t0, t1):
        """Seconds of the samples taken between t0 and t1."""
        return sum(self.took[bisect.bisect_left(self.at, t0):bisect.bisect_right(self.at, t1)])

    def scale(self, t0, t1):
        """REFERENCE_S over the mean time of the samples within MARGIN_S of
        [t0, t1], or of the last one before and the first one after."""
        lo = bisect.bisect_left(self.at, t0 - MARGIN_S)
        hi = bisect.bisect_right(self.at, t1 + MARGIN_S)
        near = self.took[lo:hi]
        if not near:
            before = bisect.bisect_left(self.at, t0) - 1
            near = [self.took[k] for k in (before, before + 1) if 0 <= k < len(self.took)]
        return REFERENCE_S * len(near) / sum(near)
