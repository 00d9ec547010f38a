"""Reference-normalized timing.

The benchmark's reference machine is a shared 2-vCPU virtual machine whose
speed is not its own: a fixed piece of interpreter work there runs at one of
two speeds about 1.5x apart, switching every few tens of milliseconds, and
the share of slow time drifts over seconds to minutes.  Raw wall times of two
identical runs can differ by a third.  So the worker calibrates while it
measures: an interval timer (SIGALRM, no thread) times `reference()` every
INTERVAL_S, during operations too.  Each operation's time, less the time its
calibrations took, is scaled by REFERENCE_S over the mean calibration within
WINDOW_S of the operation.  A normalized time reads as the time the operation
would take while `reference()` takes exactly REFERENCE_S; the raw times are
reported beside it.
"""

from __future__ import annotations

import bisect
import signal
import time

# Roughly what reference() takes on an uncontended core of the reference machine.
REFERENCE_S = 3e-3
INTERVAL_S = 0.25
WINDOW_S = 1.0


def reference() -> list[int]:
    """Tuple sorting and dict lookups over about a megabyte, like the oracle's refinement."""
    data = [((i * 7919) % 1009, (i * 104729) % 4001) for i in range(4000)]
    data.sort()
    index = {x: i for i, x in enumerate(data)}
    return [index[x] for x in data]


class Calibration:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.samples: list[float] = []

    def sample(self) -> None:
        """Time reference(), best of two back to back."""
        start = time.perf_counter()
        best = float("inf")
        for _ in range(2):
            t = time.perf_counter()
            reference()
            best = min(best, time.perf_counter() - t)
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self.samples.append(best)

    def _tick(self, signum, frame) -> None:
        try:
            self.sample()
        except RecursionError:  # the interrupted code is at the recursion limit; skip this one
            pass

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent(self, start: float, end: float) -> float:
        """Time taken by calibrations that ran inside [start, end]."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.ends, end)
        return sum(self.ends[i] - self.starts[i] for i in range(lo, hi))

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean calibration within WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self.ends, start - WINDOW_S)
        hi = bisect.bisect_right(self.ends, end + WINDOW_S)
        if lo == hi:  # no calibration that close: take the nearest one
            lo = min(lo, len(self.ends) - 1)
            hi = lo + 1
        window = self.samples[lo:hi]
        return REFERENCE_S * len(window) / sum(window)
