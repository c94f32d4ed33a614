"""Simulated processes: generators driven by the event engine.

A process is itself an :class:`~repro.sim.events.Event` that fires when
the generator returns, carrying the generator's return value.  This lets
processes wait on each other directly (``yield other_process``), which is
how the ping and pong sides of a NetPIPE trial synchronise.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Generator

from repro.sim.engine import Engine, Interrupt, SimError
from repro.sim.events import PENDING, PROCESSED, TRIGGERED, Event


class Process(Event):
    """A running simulated activity.

    Created via :meth:`Engine.process`.  The wrapped generator yields
    events; each yielded event suspends the process until it fires, at
    which point the event's value is sent back into the generator (or its
    exception is thrown in).
    """

    __slots__ = ("generator", "_waiting_on", "_obs_t0", "_resume_cb")

    def __init__(self, engine: Engine, generator: Generator):
        if type(generator) is not GeneratorType and (
            not hasattr(generator, "send") or not hasattr(generator, "throw")
        ):
            raise TypeError(
                f"Engine.process() needs a generator, got {type(generator).__name__}"
            )
        # Slots set directly rather than through Event.__init__: a sweep
        # starts a process per message delivery.
        self.engine = engine
        self.callbacks = []
        self._value = None
        self._state = PENDING
        self._ok = True
        self.generator = generator
        self._waiting_on: Event | None = None
        self._obs_t0 = 0.0
        #: the bound resume callback, made once instead of per wait
        self._resume_cb = resume = self._resume
        if engine.obs.enabled:
            engine.obs.count("sim.process.started")
            self._obs_t0 = engine.now
        # Kick off the process asynchronously at the current instant.
        start = Event(engine)
        start.callbacks.append(resume)
        start._state = TRIGGERED
        engine._schedule(start)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not yet returned or raised."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The process stops waiting on whatever event it yielded (the event
        itself is untouched and may still fire later).
        """
        if self.triggered:
            raise RuntimeError("cannot interrupt a finished process")
        waited = self._waiting_on
        if waited is not None:
            try:
                waited.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
            self._waiting_on = None
        self._kick(ok=False, value=Interrupt(cause))

    # -- internal ------------------------------------------------------------
    def _kick(self, ok: bool, value: Any) -> None:
        """Resume at the current instant (asynchronously, to preserve
        deterministic ordering) as if an event fired with ``value``."""
        kick = Event(self.engine)
        kick.callbacks.append(self._resume_cb)
        kick._state = TRIGGERED
        kick._ok = ok
        kick._value = value
        self.engine._schedule(kick)

    def _resume(self, event: Event) -> None:
        # The per-event hot path: one frame from the fired event to the
        # generator and back, with the yielded event checked inline.
        if self._state != PENDING:
            return
        self._waiting_on = None
        try:
            if event._ok:
                target = self.generator.send(event._value)
            else:
                target = self.generator.throw(event._value)
        except StopIteration as stop:
            # Drop the cached callback: it references this process, and
            # a finished process should be freed by refcounting, not
            # wait for the cyclic garbage collector.
            self._resume_cb = None
            obs = self.engine.obs
            if obs.enabled:
                obs.count("sim.process.finished")
                obs.record(
                    "sim.process", cat="sim", t0=self._obs_t0,
                    t1=self.engine.now,
                    target=getattr(self.generator, "__name__", "?"),
                )
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self._resume_cb = None
            obs = self.engine.obs
            if obs.enabled:
                obs.count("sim.process.failed")
            # The process died; propagate through anyone waiting on it.
            if self.callbacks:
                self.fail(exc)
            else:
                raise
            return
        if not isinstance(target, Event):
            raise SimError(
                f"process yielded {target!r}; processes must yield Event "
                "instances (timeout(), resource.request(), store.get(), "
                "another process, ...)"
            )
        if target.engine is not self.engine:
            raise SimError("process yielded an event from a different engine")
        if target._state == PROCESSED:
            # Already fired: resume with its outcome (asynchronously,
            # via _kick, to preserve deterministic ordering).
            self._kick(target._ok, target._value)
        else:
            target.callbacks.append(self._resume_cb)
        self._waiting_on = target
