"""Wall-clock spans around the program's public layer entry points.

The traced run installs wrappers (:func:`install`) around each layer's
public function; the untraced run installs nothing, so its numbers are
the program's own.  A span records its name, start, end, parent span
and op id.  Spans live in memory (:data:`SPANS`) until the run writes
them out.  The current span and op id ride on context variables, so a
span opened on a worker thread (``asyncio.to_thread`` copies the
context) still finds its parent.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextvars import ContextVar

_current: ContextVar[int | None] = ContextVar("perfbench_span", default=None)
_op: ContextVar[int] = ContextVar("perfbench_op", default=-1)

#: [name, t0, t1, parent, op, attrs] per span, in start order.
SPANS: list[list] = []


def set_op(op_id: int) -> None:
    _op.set(op_id)


def open_span(name: str, attrs: dict | None = None) -> tuple[int, object]:
    idx = len(SPANS)
    SPANS.append([name, time.perf_counter(), None, _current.get(), _op.get(),
                  attrs or {}])
    return idx, _current.set(idx)


def close_span(idx: int, token) -> None:
    SPANS[idx][2] = time.perf_counter()
    _current.reset(token)


def parent_name() -> str | None:
    idx = _current.get()
    return None if idx is None else SPANS[idx][0]


def _wrap(fn, name, on_exit=None):
    """``fn`` wrapped in a span; ``name`` may be a callable of the args.
    ``on_exit(attrs, args, result, error)`` fills span attributes."""

    def enter(args):
        span_name = name(args) if callable(name) else name
        return open_span(span_name)

    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            idx, token = enter(args)
            result = error = None
            try:
                result = await fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                if on_exit is not None:
                    on_exit(SPANS[idx][5], args, result, error)
                close_span(idx, token)
        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx, token = enter(args)
        result = error = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            if on_exit is not None:
                on_exit(SPANS[idx][5], args, result, error)
            close_span(idx, token)
    return wrapper


def _rebind(original, replacement) -> None:
    """Point every loaded ``repro`` module name bound to ``original`` at
    ``replacement`` (modules that did ``from x import fn`` included)."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def wrap_function(module, attr: str, name, on_exit=None) -> None:
    original = getattr(module, attr)
    _rebind(original, _wrap(original, name, on_exit))


def wrap_method(cls, attr: str, name, on_exit=None) -> None:
    setattr(cls, attr, _wrap(cls.__dict__[attr], name, on_exit))


# -- span attributes -----------------------------------------------------------

def _exec_report(attrs, args, result, error):
    attrs["failed"] = error is not None
    if result is not None:
        report = result[1]
        attrs["sweeps"] = len(report.stats)
        attrs["attempts"] = sum(s.attempts for s in report.stats)
        attrs["fallbacks"] = int(
            report.obs.counters.get("exec.tier.fallback", 0))


def _project_files(attrs, args, result, error):
    if result is not None:
        attrs["files"] = len(result.modules)


def _scenario_report(attrs, args, result, error):
    if result is not None:
        attrs["cached"] = result[1].cached
        attrs["attempts"] = result[1].attempts


def _universe_counts(attrs, args, result, error):
    if result is not None:
        attrs["path_pairs"] = sum(v.path_pairs for v in result.verdicts)
        attrs["fault_runs"] = sum(v.fault_runs for v in result.verdicts)


def install(workload: str) -> None:
    """Wrap the public entry points of every layer the workload loads."""
    from repro.core import pingpong
    from repro.exec import scheduler
    from repro.mplib import registry  # noqa: F401 - loads every library class
    from repro.mplib.base import MPLibrary
    from repro.sim.engine import Engine

    run = Engine.__dict__["run"]

    @functools.wraps(run)
    def engine_run(self, *args, **kwargs):
        idx, token = open_span("sim.run", {"start": self.events_processed})
        try:
            return run(self, *args, **kwargs)
        finally:
            attrs = SPANS[idx][5]
            attrs["events"] = self.events_processed - attrs.pop("start")
            close_span(idx, token)

    Engine.run = engine_run

    pending = [MPLibrary]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "build" in cls.__dict__:
            wrap_method(cls, "build", "mplib.build")
    wrap_function(pingpong, "measure_sweep", "core.measure_sweep")
    wrap_function(scheduler, "execute_with_policy", "exec.execute",
                  _exec_report)

    from repro.exec.cache import SweepCache

    def store_name(kind):
        return lambda args: (f"exec.cache_{kind}"
                             if type(args[0]) is SweepCache
                             else f"scenario.store_{kind}")

    wrap_method(SweepCache, "get", store_name("get"))
    wrap_method(SweepCache, "put", store_name("put"))

    if workload == "serve-mix":
        import repro.analytic
        from repro.serve import core, frontend

        wrap_function(repro.analytic, "predict_sweep",
                      "analytic.predict_sweep")
        wrap_method(core.ServeCore, "query", "serve.query")
        wrap_function(frontend, "handle_line", "serve.request")

    if workload == "scenario-congestion":
        from repro.scenario import runner
        from repro.scenario.runner import ScenarioStore

        wrap_method(ScenarioStore, "put", "scenario.store_put")
        wrap_function(runner, "compose_run", "scenario.compose")
        wrap_function(
            runner, "run_scenario",
            lambda args: ("scenario.quiet_twin"
                          if parent_name() in ("scenario.run",
                                               "scenario.quiet_twin")
                          else "scenario.run"),
            _scenario_report,
        )

    if workload == "dev-check":
        from repro.check import analyzer, project
        from repro.check.rules import FAMILIES, PROJECT_FAMILIES
        from repro.verify import universe

        wrap_function(analyzer, "analyze_paths", "check.analyze_paths")
        wrap_function(analyzer, "analyze_project", "check.analyze")
        project.Project.from_paths = classmethod(_wrap(
            project.Project.__dict__["from_paths"].__func__, "check.load",
            _project_files))
        for family in FAMILIES:
            wrap_function(family, "check", f"check.family.{family.FAMILY}")
        for family in PROJECT_FAMILIES:
            wrap_function(family, "check_project",
                          f"check.family.{family.FAMILY}")
        wrap_function(universe, "build_models", "verify.build_models")
        wrap_function(universe, "verify_library", "verify.library")
        wrap_function(universe, "verify_universe", "verify.universe",
                      _universe_counts)


# -- aggregation ---------------------------------------------------------------

def _covered(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds per span name of duration minus the time children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, t0, t1, parent, _op, _attrs in spans:
        if parent is not None and t1 is not None:
            children.setdefault(parent, []).append((t0, t1))
    out: dict[str, float] = {}
    for idx, (name, t0, t1, _parent, _op, _attrs) in enumerate(spans):
        if t1 is None:
            continue
        own = (t1 - t0) - _covered(children.get(idx, []))
        out[name] = out.get(name, 0.0) + own
    return out


def totals(spans: list[list]) -> dict[str, tuple[int, float]]:
    """(count, summed duration in seconds) per span name."""
    out: dict[str, tuple[int, float]] = {}
    for name, t0, t1, _parent, _op, _attrs in spans:
        if t1 is not None:
            n, d = out.get(name, (0, 0.0))
            out[name] = (n + 1, d + t1 - t0)
    return out
