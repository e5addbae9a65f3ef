"""Host-speed calibration for the benchmark's timings.

On a shared host the CPU's speed changes by up to half within seconds
(other tenants, frequency changes), and a pure-Python program slows down
with it.  The lost time is charged as CPU time too, so process time does
not escape it.  On a 2-vCPU cloud VM a fixed pure-Python loop took 7 ms in
some two-second stretches and 11 ms in others, in wall-clock and CPU time
alike.  The same 40 ms fusionkit call, repeated for 30 s there, gave times
whose quartiles lay 36% of the median apart; divided by the time of the
loop below, taken just before and after each call, they lay 10% apart.

So the benchmark reports a timing as *calibrated* seconds: wall-clock time
scaled by ``REFERENCE_S`` over the loop's time measured around it, that is,
the time the work would take on a host where one loop takes
``REFERENCE_S``.  The loop is benchmark code and never calls fusionkit, so a
change to fusionkit moves calibrated times exactly as it moves wall time at
a fixed host speed.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

# Nominal time of one loop: about its time on the 2-vCPU VM above with
# CPython 3.11 in a fast stretch, so calibrated figures read close to the
# wall-clock ones of such a stretch.
REFERENCE_S = 0.0025
REPEATS = 3
# Wall time between two readings of the loop while a SpeedMeter runs.
EVERY_S = 0.2


def _compose(a: tuple, b: tuple) -> tuple:
    return tuple(b[x] for x in a)


def _group_table() -> list[list[int]]:
    """The multiplication table of S4 x C4, as permutations of 8 points."""
    gens = [(1, 0, 2, 3, 4, 5, 6, 7), (1, 2, 3, 0, 4, 5, 6, 7), (0, 1, 2, 3, 5, 6, 7, 4)]
    found, frontier = {tuple(range(8))}, [tuple(range(8))]
    while frontier:
        products = {_compose(x, g) for x in frontier for g in gens}
        frontier = list(products - found)
        found |= products
    elements = sorted(found)
    index = {e: i for i, e in enumerate(elements)}
    return [[index[_compose(a, b)] for b in elements] for a in elements]


_TABLE = _group_table()


def _loop() -> int:
    """Subgroup closures over a group table, the kind of work that takes most
    of fusionkit's time: table lookups, set growth and frozensets."""
    n = len(_TABLE)
    found = {}
    for g in range(1, n):
        for h in ((g * 7 + 5) % n, (g * 11 + 1) % n):
            closure, frontier = {0}, [0]
            while frontier:
                grown = []
                for x in frontier:
                    row = _TABLE[x]
                    for y in (row[g], row[h]):
                        if y not in closure:
                            closure.add(y)
                            grown.append(y)
                frontier = grown
            found[frozenset(closure)] = g
    return len(found)


def loop_seconds() -> float:
    """The median time of REPEATS runs of the loop."""
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        _loop()
        times.append(perf_counter() - start)
    return statistics.median(times)


class SpeedMeter:
    """A clock for timing work in calibrated seconds.

    While the meter runs, an interval timer takes a reading of the loop
    every EVERY_S seconds in a SIGALRM handler, between two bytecodes of
    whatever is running, so even a query of many seconds is calibrated
    along its length.  ``now`` is wall-clock time less the time spent in
    readings.  Time between two readings is scaled by ``REFERENCE_S`` over
    the mean of the two, and ``seconds(start, end)`` adds up the scaled
    pieces of an interval; it needs a reading at or after ``end``, which
    ``read`` takes on demand.
    """

    def __init__(self) -> None:
        self.paused = 0.0
        self.times: list[float] = []  # `now` at each reading
        self.loops: list[float] = []  # the loop's time at each reading
        self.calibrated: list[float] = []  # calibrated seconds up to each reading
        self.factors: list[float] = []  # scale of the time since the reading before
        self._busy = False

    def now(self) -> float:
        while True:  # retry if a reading ran in between
            paused = self.paused
            t = perf_counter()
            if paused == self.paused:
                return t - paused

    def read(self, *_signal_args) -> None:
        if self._busy:  # the timer fired during a reading
            return
        self._busy = True
        start = perf_counter()
        loop = loop_seconds()
        at = start - self.paused
        if self.times:
            factor = REFERENCE_S / ((self.loops[-1] + loop) / 2)
            self.calibrated.append(self.calibrated[-1] + (at - self.times[-1]) * factor)
        else:
            factor = REFERENCE_S / loop
            self.calibrated.append(0.0)
        self.factors.append(factor)
        self.times.append(at)
        self.loops.append(loop)
        self.paused += perf_counter() - start
        self._busy = False

    def start(self) -> None:
        self.read()
        signal.signal(signal.SIGALRM, self.read)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.read()

    def _at(self, t: float) -> float:
        i = min(max(bisect.bisect_right(self.times, t) - 1, 0), len(self.times) - 2)
        return self.calibrated[i] + (t - self.times[i]) * self.factors[i + 1]

    def seconds(self, start: float, end: float) -> float:
        """Calibrated seconds between two values of ``now``."""
        return self._at(end) - self._at(start)
