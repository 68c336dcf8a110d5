"""Host speed, sampled while the benchmark times the program.

A shared host runs the same pure-Python work up to twice as slowly from one
second to the next, and the slow stretches last from milliseconds to minutes,
so raw wall times of the same code spread between runs by more than any
change worth measuring. :func:`probe` is a fixed piece of integer arithmetic
that is the benchmark's own code, never the package's. :class:`Sampler` times
it on its thread's CPU clock every ``PERIOD`` seconds from a background
thread while the program runs, and :meth:`Sampler.scale` turns an interval's
wall time into reference seconds: the time it would have taken with the
probe at ``REFERENCE_S``, about its time on a 2-vCPU host in its fast state.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

REFERENCE_S = 3.5e-4
PERIOD = 0.02
MARGIN = 0.05  # probes this far outside a short interval still describe it

_MATRIX = ((3, -1, 4, 1), (5, 9, -2, 6), (5, 3, -5, 8), (9, -7, 9, 3))


def _det(rows):
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j] * _det([r[:j] + r[j + 1 :] for r in rows[1:]]) for j in range(len(rows)))


def probe() -> float:
    """CPU seconds of this thread spent on a fixed batch of 4x4 determinants."""
    start = time.thread_time()
    for k in range(6):
        _det([[x + k for x in row] for row in _MATRIX])
    return time.thread_time() - start


def probe_mean(count: int) -> float:
    return statistics.fmean(probe() for _ in range(count))


class Sampler:
    """Probe times taken from a background thread while the context is open."""

    def __init__(self):
        self.times: list[float] = []
        self.probes: list[float] = []  # read them only after the context closes
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-sampler", daemon=True)

    def _run(self):
        while not self._stop.wait(PERIOD):
            seconds = probe()
            self.times.append(time.perf_counter())
            self.probes.append(seconds)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean probe time around ``[start, end]``.

        Call it after the context has closed, when every probe is in.
        """
        lo = bisect.bisect_left(self.times, start - MARGIN)
        hi = bisect.bisect_right(self.times, end + MARGIN)
        if hi <= lo:
            raise RuntimeError("perfbench: no speed probe near a timed interval")
        return REFERENCE_S / statistics.fmean(self.probes[lo:hi])
