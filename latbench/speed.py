"""Timing in reference seconds: wall time corrected for the machine's speed.

On a shared host the same pure-Python loop can take from 0.7x to 1.4x its
usual time.  The speed wanders with a correlation time of about a second and
drifts over minutes, so raw wall times of two runs of the same code differ by
10-30%.  ``Timer`` therefore samples the speed *during* the timed code: a
SIGALRM every ``INTERVAL`` seconds runs a tiny fixed kernel and records how
long it took.  The kernel's time is taken out of the measured time, and

    reference seconds = measured seconds * mean(REF_SECONDS / kernel time)

i.e. the time the code would have taken at the speed at which the kernel
runs in ``REF_SECONDS``.  The kernel uses only the standard library, so no
change to ``latsuper`` moves it.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

INTERVAL = 0.02         # seconds between speed samples
REF_SECONDS = 0.00028   # the kernel's median time when sampled between latsuper
                        # calls on a 2-core shared Xeon VM


def kernel() -> int:
    """About 0.15 ms (0.3 ms with cold caches) of the kind of work latsuper
    does: small-int arithmetic, dict updates, int bitmasks and Fractions."""
    table = [(i * 7 + 3) % 101 for i in range(600)]
    counts: dict[int, int] = {}
    for x in table:
        counts[x] = counts.get(x, 0) + 1
    mask = 0
    for x in table[:200]:
        mask |= 1 << x
    total = Fraction(0)
    for i in range(1, 25):
        total += Fraction(i % 5, i)
    return len(counts) + mask.bit_count() + total.denominator % 3


class Timer:
    """``with Timer() as t:`` times its body; afterwards ``t.seconds`` is the
    wall time without the sampling, ``t.ref_seconds`` the same in reference
    seconds.  The main thread only; not reentrant."""

    def __enter__(self) -> "Timer":
        self.samples: list[float] = []
        self.busy = 0.0
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self.previous)
        self.seconds = end - self.start - self.busy
        self._tick()  # at least one sample, also for bodies shorter than INTERVAL
        speed = sum(REF_SECONDS / k for k in self.samples) / len(self.samples)
        self.ref_seconds = self.seconds * speed

    def _tick(self, *_) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.busy += time.perf_counter() - start
