"""Host-speed reference: a fixed loop timed all through the run.

The benchmark runs on a few cores of a shared host whose speed drifts
by the second: the same iteration of the same cell can take 1.0 s or
2.4 s minutes apart.  While a workload runs, an interval timer
interrupts it every ``REF_PERIOD_S`` and the signal handler times one
*sample*: a fixed pure-Python loop shaped like the simulator's hot path
(heap pushes and pops of tuples, dict stores, wide integer ids, table
reads).  A host time is then reported in *reference seconds*: the raw
time, less the handler's own time, scaled by ``REF_NOMINAL_S`` over the
mean sample taken during it -- what the interval would take on a host
where one sample takes ``REF_NOMINAL_S``.  The loop lives in the
benchmark and its table fits in any cache, so no change to the
simulator can make it faster or slower: a slower simulator reads
slower, a busier host mostly does not.  The raw seconds are printed
beside the scaled ones.

The handler draws from no RNG and schedules nothing, so the simulated
outcome is unchanged (the run's fingerprint checks that).
"""

from __future__ import annotations

import gc
import signal
import time
from array import array
from bisect import bisect_left
from heapq import heappop, heappush
from typing import List, Tuple

#: Time of one sample on the reference host, so scaled values read as
#: seconds of that machine at its usual speed.
REF_NOMINAL_S = 0.002
#: Loop steps per sample (about ``REF_NOMINAL_S`` on the reference host).
REF_STEPS = 2000
#: Interval timer period; the handler costs about
#: ``REF_NOMINAL_S / REF_PERIOD_S`` of the run.
REF_PERIOD_S = 0.05

_MASK = (1 << 12) - 1
_ID_MASK = (1 << 160) - 1
#: A permutation of 0..4095 (an odd multiplier is a bijection mod 2^12).
_TABLE = array("q", ((i * 0x9E3779B1) & _MASK for i in range(_MASK + 1)))


def _loop(steps: int) -> int:
    table = _TABLE
    heap: list = []
    slots: dict = {}
    acc = 0
    j = 1
    for i in range(steps):
        j = table[(j * 2654435761 + i) & _MASK]
        ident = (j * 0x9E3779B97F4A7C15) & _ID_MASK
        heappush(heap, (ident & 0xFFFFFFFF, i))
        slots[j & 0xFF] = ident
        if len(heap) > 64:
            acc ^= heappop(heap)[1]
    return acc + len(slots)


def sample() -> float:
    """Host seconds of one run of the reference loop, collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _loop(REF_STEPS)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(raw_s: float, ref_s: float) -> float:
    """``raw_s`` host seconds in reference seconds, given the mean
    sample time ``ref_s`` measured while they ran."""
    return raw_s * REF_NOMINAL_S / ref_s


#: A point on the sampler's timeline: (host clock, samples so far,
#: handler seconds so far).
Mark = Tuple[float, int, float]


class Sampler:
    """Takes a sample every ``REF_PERIOD_S`` of wall time between
    :meth:`start` and :meth:`stop`, and turns a pair of marks into the
    handler-free and the scaled duration of the interval between them."""

    def __init__(self) -> None:
        self.at: List[float] = []
        self.took: List[float] = []
        #: host seconds spent inside the handler
        self.spent = 0.0
        self._old = None

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._take()
        self.spent += time.perf_counter() - t0

    def _take(self) -> None:
        t0 = time.perf_counter()
        self.took.append(sample())
        self.at.append(t0)

    def start(self) -> None:
        self._take()
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self._take()

    def mark(self) -> Mark:
        return (time.perf_counter(), len(self.took), self.spent)

    def ref_s(self, a: Mark, b: Mark) -> float:
        """Mean sample taken between marks ``a`` and ``b``; for an
        interval too short to hold one, the two samples around it."""
        lo, hi = a[1], b[1]
        if hi == lo:
            lo = max(bisect_left(self.at, a[0]) - 1, 0)
            hi = min(lo + 2, len(self.took))
        took = self.took[lo:hi]
        return sum(took) / len(took)

    def host_s(self, a: Mark, b: Mark) -> float:
        """Host seconds between the marks, less the handler's time."""
        return (b[0] - a[0]) - (b[2] - a[2])

    def scaled_s(self, a: Mark, b: Mark) -> float:
        return scale(self.host_s(a, b), self.ref_s(a, b))
