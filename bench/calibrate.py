"""A fixed unit of exact rational arithmetic that shares no code with
lineargames, and a sampler that times it while queries run.

One unit is Gauss-Jordan elimination over `Fraction`s on a fixed seeded
8 x 9 matrix: the same kind of work as the library's exact simplex (small
rationals, Python-level arithmetic), but code that no change to the
library can touch.  Its time samples how fast the host runs this kind of
work at that moment.
"""

from __future__ import annotations

import gc
import random
import signal
from fractions import Fraction
from time import perf_counter

_rnd = random.Random(1109)
_MATRIX = [[Fraction(_rnd.randint(-3, 3)) for _ in range(9)] for _ in range(8)]


def unit() -> float:
    """Run one unit and return its duration in seconds.

    The collector is off during the unit, so that garbage the library
    leaves behind is not collected, and charged, inside it.
    """
    gc.disable()
    t0 = perf_counter()
    a = [row[:] for row in _MATRIX]
    for c in range(len(a)):
        p = next(r for r in range(c, len(a)) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        for r in range(len(a)):
            if r != c and a[r][c] != 0:
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    elapsed = perf_counter() - t0
    gc.enable()
    return elapsed


class Sampler:
    """Times a unit every `interval` seconds of wall time, from SIGALRM,
    also in the middle of a query, and keeps a clock that stops while a
    unit runs.

    A query of several seconds spans many changes of host speed; units
    timed only between queries miss them.  The handler runs between two
    bytecodes of the main thread and touches no state of the library.
    Within `with sampler:` the timer is armed; `sample` also times a unit
    directly.  `units` holds (clock time, duration) pairs in time order.
    """

    def __init__(self, interval: float) -> None:
        self.interval = interval
        self.units: list[tuple[float, float]] = []
        self._paused = 0.0  # wall time spent in units, left out of clock()
        self._busy = False

    def clock(self) -> float:
        """perf_counter() less the time spent in units so far."""
        while True:
            paused = self._paused
            now = perf_counter()
            if paused == self._paused:  # no unit ran between the two reads
                return now - paused

    def sample(self, *_signal_args) -> None:
        if self._busy:  # a signal that arrived during a unit
            return
        self._busy = True
        entered = perf_counter()
        self.units.append((self.clock(), unit()))
        self._paused += perf_counter() - entered
        self._busy = False

    def __enter__(self) -> Sampler:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
