"""The discrete-event engine: a time-ordered heap of pending events.

The engine owns simulated time.  Nothing in the simulation consults the
wall clock; ``engine.now`` advances only when the engine pops the next
event off its heap.  Ties are broken by insertion order (a sequence
counter), which makes every run bit-for-bit deterministic.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Generator, Optional

from repro.obs.recorder import NULL_RECORDER
from repro.sim.events import PROCESSED, Event, Timeout, AllOf, AnyOf


class SimError(Exception):
    """Raised for illegal simulation operations (deadlock, bad yields...)."""


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The ``cause`` attribute carries whatever the interrupter supplied.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Engine:
    """Discrete-event simulation engine.

    Typical use::

        eng = Engine()

        def worker(eng):
            yield eng.timeout(1.5)
            return "done"

        proc = eng.process(worker(eng))
        eng.run()
        assert eng.now == 1.5 and proc.value == "done"
    """

    # The engine is instantiated per sweep and its attributes are read
    # on every event; __slots__ keeps instances small and lookups fast.
    __slots__ = (
        "_now", "_heap", "_seq", "_seq_counted", "events_processed", "obs",
    )

    def __init__(self, obs=None) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        #: ``_seq`` at the last ``sim.scheduled`` settlement
        self._seq_counted = 0
        self.events_processed = 0
        #: repro.obs recorder every hook in the stack reads; the null
        #: recorder's class-level ``enabled = False`` keeps untraced
        #: runs to one attribute check per hook site.  Attach a real
        #: Recorder at construction only — layers bind it once.
        self.obs = NULL_RECORDER if obs is None else obs
        if self.obs.enabled and self.obs.clock is None:
            self.obs.clock = lambda: self._now

    # -- time --------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time (seconds by convention in this repo)."""
        return self._now

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        """A fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value)

    def all_of(self, events) -> AllOf:
        """An event that fires when every event in ``events`` has fired."""
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        """An event that fires when any event in ``events`` fires."""
        return AnyOf(self, events)

    def process(self, generator: Generator) -> "Process":
        """Start a new simulated process running ``generator``."""
        return Process(self, generator)

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        # Hot path: called for every event in the simulation.  The
        # zero-delay case (process resumption kicks, immediate
        # succeed()) skips the float add entirely.  No obs hook here:
        # the ``sim.scheduled`` counter is settled from the ``_seq``
        # delta when run()/step() return (see _settle_obs).
        if delay:
            if delay < 0:
                raise ValueError(
                    f"cannot schedule into the past (delay={delay!r})"
                )
            when = self._now + delay
        else:
            when = self._now
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (when, seq, event))

    def _settle_obs(self, processed: int) -> None:
        """Credit the recorder with ``processed`` events and every
        event scheduled since the last settlement."""
        obs = self.obs
        obs.count("sim.events", processed)
        obs.count("sim.scheduled", self._seq - self._seq_counted)
        self._seq_counted = self._seq

    # -- execution ------------------------------------------------------------
    def step(self) -> None:
        """Process the single next event.  Raises SimError if none remain."""
        if not self._heap:
            raise SimError("no more events")
        self._now, _, event = heappop(self._heap)
        self.events_processed += 1
        try:
            event._fire()
        finally:
            if self.obs.enabled:
                self._settle_obs(1)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else float("inf")

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the heap drains, a time is reached, or an event fires.

        * ``until=None`` — run to exhaustion.
        * ``until=<float>`` — run until simulated time reaches that value.
        * ``until=<Event>`` — run until that event has fired; returns its
          value (re-raising its exception if it failed).
        """
        # This is where a sweep spends nearly all of its time, so each
        # loop below inlines step() and Event._fire: one heappop, the
        # state flip and the callback calls, with the heap bound to a
        # local.  ``events_processed`` is reconciled in ``finally`` so a
        # mid-run exception (a failed process re-raising) still leaves
        # the counter accurate.
        heap = self._heap
        processed = 0
        traced = self.obs.enabled
        if traced:
            self.obs.count("sim.runs")
        target = None
        horizon = 0.0
        if isinstance(until, Event):
            target = until
        elif until is not None:
            horizon = float(until)
            if horizon < self._now:
                raise ValueError("cannot run() to a time in the past")
        try:
            if until is None:
                while heap:
                    self._now, _, event = heappop(heap)
                    processed += 1
                    event._state = PROCESSED
                    callbacks = event.callbacks
                    event.callbacks = []
                    for cb in callbacks:
                        cb(event)
            elif target is not None:
                while target._state != PROCESSED:
                    if not heap:
                        raise SimError(
                            "deadlock: event heap drained before the awaited "
                            "event fired (a process is waiting on something "
                            "that can never happen)"
                        )
                    self._now, _, event = heappop(heap)
                    processed += 1
                    event._state = PROCESSED
                    callbacks = event.callbacks
                    event.callbacks = []
                    for cb in callbacks:
                        cb(event)
            else:
                while heap and heap[0][0] <= horizon:
                    self._now, _, event = heappop(heap)
                    processed += 1
                    event._state = PROCESSED
                    callbacks = event.callbacks
                    event.callbacks = []
                    for cb in callbacks:
                        cb(event)
        finally:
            self.events_processed += processed
            if traced:
                self._settle_obs(processed)
        if target is not None:
            if not target._ok:
                raise target._value
            return target._value
        if until is not None:
            self._now = max(self._now, horizon)
        return None


# Bound at import end: process.py imports this module, and the package
# __init__ always loads this module first.
from repro.sim.process import Process  # noqa: E402
