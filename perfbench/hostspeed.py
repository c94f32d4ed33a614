"""Host-speed calibration for wall-clock timings on shared machines.

A shared build host changes speed from second to second: the same
pure-Python loop can take 60 ms and then 95 ms a few seconds later,
because other tenants load the physical cores.  Unscaled timings of
ten 25 s runs of identical code spread by up to 14 % (33 % for set-up
time); scaled as below, by at most 9 % (11 %).

The benchmark therefore times a fixed calibration loop (:func:`spin`)
while the program is idle: before and after every op of a single-caller
workload, in pauses of serve-mix's clients, and around every set-up
spawn.  It scales each op's wall time by ``reference / the calibration
time near it``, so timings read as on a reference host where one spin
takes ``REFERENCE_S``; a host that is uniformly twice as slow reports
the same numbers.  The raw, unscaled wall times are printed beside them.
"""

from __future__ import annotations

import bisect
import heapq
import statistics
import time

#: Nominal duration of one spin on the reference host.
REFERENCE_S = 2e-3
SPIN_EVENTS = 700
SPIN_ARITHMETIC = 20_000
#: Calibration samples within this many seconds of an op describe it.
NEAR_S = 0.5


class _Event:
    __slots__ = ("t", "v")

    def __init__(self, t: float, v: int) -> None:
        self.t = t
        self.v = v


def spin() -> float:
    """The calibration loop: a miniature event queue, then arithmetic.

    The queue allocates small objects and works a heap of tuples and a
    dict, like the simulator and its callers; the arithmetic is pure
    interpreter dispatch.  On a shared host their sum tracks the slow
    phases of both the sweeps and the analyzer better than either part
    alone (and better than a memory walk).
    """
    heap: list = []
    latest: dict = {}
    for i in range(SPIN_EVENTS):
        event = _Event(i * 0.37 % 101.0, i)
        heapq.heappush(heap, (event.t, i, event))
        latest[i & 255] = event
    total = 0.0
    while heap:
        t, _, event = heapq.heappop(heap)
        total += t + latest.get(event.v & 255, event).t
    for i in range(SPIN_ARITHMETIC):
        total += i * i
    return total


class HostSpeed:
    """Timestamped calibration samples and the scale they imply.

    Take samples only while the program is idle: a sample that competes
    with the program's own work for the core is slowed by it.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.durations: list[float] = []

    def sample(self, n: int = 2) -> None:
        for _ in range(n):
            t0 = time.perf_counter()
            spin()
            t1 = time.perf_counter()
            self.times.append((t0 + t1) / 2)
            self.durations.append(t1 - t0)

    def scale_between(self, t0: float, t1: float) -> float:
        """Reference seconds per host second over ``[t0, t1]``, from the
        samples within NEAR_S of that interval (at least the 6 nearest)."""
        lo = bisect.bisect_left(self.times, t0 - NEAR_S)
        hi = bisect.bisect_right(self.times, t1 + NEAR_S)
        if hi - lo < 6:
            mid = bisect.bisect_left(self.times, (t0 + t1) / 2)
            lo, hi = max(0, mid - 3), min(len(self.times), mid + 3)
        return REFERENCE_S / statistics.median(self.durations[lo:hi])

    def scale(self) -> float:
        """Reference seconds per host second over every sample."""
        return REFERENCE_S / statistics.median(self.durations)
