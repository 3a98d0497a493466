"""Times expressed at a fixed machine speed.

The benchmark was set up on a shared virtual machine whose speed moved by
up to 1.8x within seconds as other tenants loaded the host, and stayed slow
for minutes at a time (see README.md, Noise).  Plain wall times taken a few
minutes apart then differ by more than the benchmark's bounds, whatever the
run length.  So each measured interval is also timed against REFERENCE, a
fixed pure-Python loop that shares no code with pluricoh:

    normalized = (elapsed - time spent in REFERENCE) * REFERENCE_S / mean REFERENCE time

where the REFERENCE times are sampled just before, during (every
INTERVAL_S, from a SIGALRM handler in the same thread) and just after the
interval.  REFERENCE_S is the loop's time at full speed on the reference
host, so a normalized time reads as the wall time that host takes when it
is not loaded.  A change in pluricoh moves the normalized time as it moves
the wall time; a change in the host's load mostly does not.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.01
# Time of one REFERENCE call at full speed on the reference host (2.1 GHz
# Xeon, Python 3.11.7): the least of many thousands of samples.
REFERENCE_S = 185e-6

_A = 3**400
_B = 7**300
_FRACTIONS = [Fraction(i, j) for i in range(1, 7) for j in range(1, 5)]
_MATRIX = [[(7 * i + 3 * j) % 11 - 5 + 13 * (i == j) for j in range(9)] for i in range(9)]


def _integers() -> int:
    x = 0
    for i in range(200):
        x += (i * i) % 7
    for _ in range(24):
        x ^= _A * _B // (_B + 1) & 1
    return x


def _fractions() -> Fraction:
    total = Fraction(0)
    for f in _FRACTIONS:
        total += f * f
    return total


def _elimination() -> int:
    # Fraction-free elimination of a fixed 9x9 integer matrix; returns its rank.
    work = [row[:] for row in _MATRIX]
    rank, prev = 0, 1
    for c in range(9):
        pivot_row = next((i for i in range(rank, 9) if work[i][c]), None)
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        pivot, row_r = work[rank][c], work[rank]
        for row_i in work[rank + 1 :]:
            factor = row_i[c]
            for j in range(c + 1, 9):
                row_i[j] = (pivot * row_i[j] - factor * row_r[j]) // prev
        prev = pivot
        rank += 1
    return rank


def reference() -> None:
    """The fixed loop: about equal parts of small- and big-integer
    arithmetic, Fraction arithmetic and integer elimination, the three kinds
    of work pluricoh does; on the recordings in README.md this mix followed
    the host's speed on every workload more closely than any one part."""
    _integers()
    _fractions()
    _elimination()
    _elimination()


def reference_s(samples: int) -> float:
    """Median time of `samples` REFERENCE calls, made now."""
    times = []
    for _ in range(samples):
        began = time.perf_counter()
        reference()
        times.append(time.perf_counter() - began)
    return statistics.median(times)


class Meter:
    """Measures intervals in wall time and in normalized time.

    Use ``with meter.interval():`` around the code to measure; afterwards
    ``meter.elapsed_s`` is its wall time less the time REFERENCE took inside
    it, and ``meter.normalized_s`` that time at the reference speed.  Only
    one interval may be open at a time, in the main thread.
    """

    def __init__(self) -> None:
        self.elapsed_s = 0.0
        self.normalized_s = 0.0
        self._samples: list[float] = []
        self._spent = 0.0

    def _sample(self, *_) -> None:
        began = time.perf_counter()
        reference()
        ended = time.perf_counter()
        self._samples.append(ended - began)
        self._spent += time.perf_counter() - began

    @contextlib.contextmanager
    def interval(self):
        self._samples = []
        self._sample()
        self._spent = 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        began = time.perf_counter()
        try:
            yield self
        finally:
            ended = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
            self.elapsed_s = ended - began - self._spent
            self._sample()
            self.normalized_s = self.elapsed_s * REFERENCE_S / statistics.fmean(self._samples)
