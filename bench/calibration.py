"""Calibrated seconds: timings corrected for the speed the machine ran at.

On a shared machine the same computation can take 30% to 70% longer from
one second to the next, because of other tenants. Raw wall time then varies
between runs far more than any regression a benchmark is meant to catch,
and the speed can change in the middle of a long job.

The benchmark therefore samples the machine's speed while the jobs run. A
`Meter` arms an interval timer; every TICK_PERIOD_S its signal handler runs
a fixed reference work of about 0.6 ms (a tick), owned by the benchmark and
independent of deltasys, and records how long it took. Ticks take 2% to 4%
of a job's time. That time is taken out of the job's time, and the rest is
rescaled by the speed the ticks saw:

    calibrated = (measured - tick time) * TICK_S * mean(1 / tick seconds)

This is the job's time at the machine speed at which a tick takes TICK_S.
The mean of inverse tick times is the mean speed over the block, so a job
during which the machine changed speed gets the speed of each part of it.
A change to deltasys changes the measured time but not the ticks, so it
shows in full.

The reference work is the kind of interpreter work deltasys spends its
time on: bitmask recursion over small Python integers, and AND and bit
counts over 300-bit masks, as in the search kernels. Of the reference works
tried, this one followed the speed of the search, weight and homogeneous
jobs most closely. The handler runs in this process, between two bytecodes
of the job: no thread or process is started.
"""

from __future__ import annotations

import random
import signal
import statistics
from time import perf_counter

TICK_PERIOD_S = 0.025
# a block shorter than the timer period gets this many ticks after it ends
MIN_TICKS = 5
# time of one tick inside a deltasys job on the 2-core VM (Python 3.11.7)
# this benchmark was written on, at its faster speed; it only fixes the
# unit of calibrated seconds
TICK_S = 0.0006

_rng = random.Random(20071105)
_N = 44
_ADJ = [0] * _N
for _i in range(_N):
    for _j in range(_i + 1, _N):
        if _rng.random() < 0.5:
            _ADJ[_i] |= 1 << _j
            _ADJ[_j] |= 1 << _i
_MASKS = [_rng.getrandbits(300) for _ in range(64)]


def _cliques(cand: int, depth: int) -> int:
    if depth == 0:
        return 1
    total = 0
    while cand:
        low = cand & -cand
        cand ^= low
        total += _cliques(cand & _ADJ[low.bit_length() - 1], depth - 1)
    return total


def tick_work() -> int:
    """A fixed computation of about 0.6 ms; its result never changes."""
    common = sum((a & b).bit_count() for a in _MASKS for b in _MASKS[::4])
    return _cliques((1 << _N) - 1, 3) + common


class Meter:
    """Samples the machine's speed while a block of work runs.

    Use as a context manager around the block. `spent` is the time the
    handler has taken so far; a caller timing part of the block subtracts
    its growth over that part.
    """

    def __init__(self) -> None:
        self.ticks: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self) -> float:
        started = perf_counter()
        tick_work()
        seconds = perf_counter() - started
        self.ticks.append(seconds)
        return seconds

    def _on_alarm(self, signum, frame) -> None:
        started = perf_counter()
        self._tick()
        self.spent += perf_counter() - started

    def __enter__(self) -> Meter:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, TICK_PERIOD_S, TICK_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        while len(self.ticks) < MIN_TICKS:
            self._tick()

    def scale(self) -> float:
        """Calibrated seconds per measured second over the block."""
        return TICK_S * statistics.fmean(1 / t for t in self.ticks)


def tick_s() -> float:
    """Median seconds of 25 ticks run back to back: one speed reading."""
    meter = Meter()
    for _ in range(25):
        meter._tick()
    return statistics.median(meter.ticks)
