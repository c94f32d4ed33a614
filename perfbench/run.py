#!/usr/bin/env python3
"""The repo benchmark: one workload, one seed, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-sim --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the program untouched and reports the end-to-end
metrics.  ``--trace 1`` runs the same ops twice, untraced and then with
spans around every layer's public entry points (:mod:`tracing`), and
reports the per-layer metrics.  Both check the outputs (:mod:`checks`).
Timings are scaled to a reference host speed (:mod:`hostspeed`).
Metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is the result object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_PROBES = 5
PROBE_TIMEOUT = 120
#: Metric names and units, read from BENCHMARK.json by :func:`main`.
BENCH: dict = {}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Percentile, linearly interpolated between the two samples around
    it, and how many samples lie beyond it.  Of ten samples the 90th
    percentile lies mostly on the second largest, not on the largest as
    the nearest rank would."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0], 0
    value = statistics.quantiles(ordered, n=100, method="inclusive")[
        round(q * 100) - 1]
    return value, sum(1 for x in ordered if x > value)


# -- set-up probes -------------------------------------------------------------

def run_probe(root: Path, workload: str, tmp: Path, speed: HostSpeed,
              importtime=False, first_call=False) -> dict:
    """Spawn a fresh interpreter; time it from spawn to ``ready``."""
    tmp.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "probe.py"), workload, str(tmp)]
    if first_call:
        cmd.append("--first-call")
    speed.sample()
    with open(tmp / "stderr", "w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                                stderr=err, text=True)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            rest, _ = proc.communicate(timeout=PROBE_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        err.seek(0)
        stderr = err.read()
    speed.sample()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): "
                           f"{stderr[-2000:]}")
    scale = speed.scale_between(t0, t1)
    out = {"ready_s": (t1 - t0) * scale, "raw_ready_s": t1 - t0,
           "stderr": stderr, "scale": scale}
    for extra in rest.splitlines():
        key, _, value = extra.partition(" ")
        out[key] = float(value) * scale
    return out


def import_costs(stderr: str, scale: float) -> dict[str, float]:
    """ms of ``repro`` (without numpy) and ``numpy`` imports, from
    ``-X importtime`` output."""
    repro_us = numpy_us = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = len(name) - len(name.lstrip()) - 1
        name = name.strip()
        if depth == 0 and name.split(".")[0] == "repro":
            repro_us += float(cumulative)
        if name == "numpy":
            numpy_us += float(cumulative)
    return {"import.repro_ms": max(repro_us - numpy_us, 0.0) / 1e3 * scale,
            "import.numpy_ms": numpy_us / 1e3 * scale}


# -- phases --------------------------------------------------------------------

@dataclass
class Phase:
    """One measured closed loop: raw op intervals and host calibration."""

    speed: HostSpeed = field(default_factory=HostSpeed)
    intervals: list[tuple[float, float]] = field(default_factory=list)
    #: Stretches of time the callers were busy: the op intervals of a
    #: single caller, the stretches between pauses in serve-mix.
    slices: list[tuple[float, float]] = field(default_factory=list)
    failed: int = 0

    @property
    def raw(self) -> list[float]:
        return [t1 - t0 for t0, t1 in self.intervals]

    @property
    def latencies(self) -> list[float]:
        """Op latencies in reference-host seconds."""
        return [(t1 - t0) * self.speed.scale_between(t0, t1)
                for t0, t1 in self.intervals]

    @property
    def busy(self) -> float:
        """Reference-host seconds the callers spent in the loop."""
        return sum((t1 - t0) * self.speed.scale_between(t0, t1)
                   for t0, t1 in self.slices)

    @property
    def raw_busy(self) -> float:
        return sum(t1 - t0 for t0, t1 in self.slices)


def measure(workload, trace, seconds=None, n_ops=None) -> Phase:
    """Closed loop for ``seconds`` or ``n_ops`` ops."""
    phase = Phase()
    if hasattr(workload, "phase"):
        gc.collect()
        gc.freeze()
        phase.intervals, phase.slices = workload.phase(
            phase.speed, seconds, n_ops, on_op=trace.set_op)
        phase.failed = workload.failed()
        return phase
    stream = workload.ops()
    # One untimed op first, so lazy imports and first-call set-up are
    # not charged to the first timed op.
    op = next(stream)
    workload.record(op, workload.run_op(op))
    # Its spans (in a traced run) belong to no measured op.
    trace.SPANS.clear()
    phase.speed.sample(10)
    t_start = time.perf_counter()
    while (len(phase.intervals) < n_ops if n_ops is not None
           else time.perf_counter() - t_start < seconds):
        op = next(stream)
        trace.set_op(len(phase.intervals))
        # Every op starts from the same heap: the garbage of the last op
        # collected, and what survives moved out of the collector's way.
        gc.collect()
        gc.freeze()
        phase.speed.sample()
        t0 = time.perf_counter()
        try:
            output = workload.run_op(op)
            error = None
        except Exception as exc:  # a raising op is a failed op
            error = exc
        t1 = time.perf_counter()
        phase.speed.sample()
        phase.intervals.append((t0, t1))
        if error is not None:
            phase.failed += 1
            workload.problems.append(f"op raised {error!r}")
        else:
            workload.record(op, output)
    phase.slices = phase.intervals
    return phase


def end_to_end(workload, phase: Phase, setup: list[dict], rss_mb) -> dict:
    from workloads import anchor_rows

    ms = [x * 1e3 for x in phase.latencies]
    rows = anchor_rows(workload.figure_curves())
    metrics = {
        "setup_s": statistics.median(p["ready_s"] for p in setup),
        "ops_per_s": len(ms) / phase.busy,
        "peak_rss_mb": rss_mb,
        "anchor_rel_err_max": max(r[3] for r in rows),
    }
    beyond = {}
    for q in (50, 90, 99):
        metrics[f"op_ms_p{q}"], beyond[q] = percentile(ms, q / 100)
    print(f"ops {len(ms)}; samples beyond p50/p90: {beyond[50]}/{beyond[90]}"
          + ("" if beyond[90] >= 10 else
             " (fewer than 10 beyond p90: read it as near the largest)")
          + f"; op_ms_p99 {metrics['op_ms_p99']:.4f} with {beyond[99]} "
          "beyond (printed only: too few samples or too unsteady to bound)")
    raw_ms = [x * 1e3 for x in phase.raw]
    print("unscaled wall: " + json.dumps({
        "setup_s": statistics.median(p["raw_ready_s"] for p in setup),
        "ops_per_s": len(ms) / phase.raw_busy,
        "op_ms_p50": percentile(raw_ms, 0.5)[0],
        "op_ms_p90": percentile(raw_ms, 0.9)[0],
        "host_scale": phase.speed.scale()}))
    print(f"anchors audited {len(rows)}, passing "
          f"{sum(1 for r in rows if r[2])}")
    return metrics


def per_layer(name, trace, spans, untraced: Phase, traced: Phase,
              workload) -> dict:
    """Per-layer metrics of the traced phase, in reference-host units;
    :func:`run` adds the ones the set-up probe measures."""
    k = traced.speed.scale()
    self_s = trace.self_times(spans)
    totals = trace.totals(spans)
    n = max(len(traced.intervals), 1)

    def ms_per_op(span):
        return self_s.get(span, 0.0) * k * 1e3 / n

    by_idx = dict(enumerate(spans))
    runs = [s for s in spans if s[0] == "sim.run"]
    events = sum(s[5]["events"] for s in runs)
    run_s = sum(s[2] - s[1] for s in runs) * k
    execs = [s for s in spans if s[0] == "exec.execute"]
    ok_execs = [s for s in execs if not s[5].get("failed")]
    sweeps = sum(s[5].get("sweeps", 0) for s in ok_execs)
    failed_execs = {i for i, s in by_idx.items()
                    if s[0] == "exec.execute" and s[5].get("failed")}
    failed_builds = sum(1 for s in spans
                        if s[0] == "mplib.build" and s[3] in failed_execs)
    served_execs = [s for s in execs
                    if s[3] is not None and by_idx[s[3]][0] == "serve.query"]
    loads = [s[5].get("files", 0) for s in spans if s[0] == "check.load"
             and s[3] is not None and by_idx[s[3]][0] == "check.analyze_paths"]
    predict_n, predict_s = totals.get("analytic.predict_sweep", (0, 0.0))
    query_s = totals.get("serve.query", (0, 0.0))[1] * k

    metrics = {
        "sim.events": events / n,
        "sim.run_ms": ms_per_op("sim.run"),
        "sim.events_per_s": events / run_s if run_s else 0.0,
        "mplib.build_ms": ms_per_op("mplib.build"),
        "core.measure_sweep_ms": ms_per_op("core.measure_sweep"),
        "exec.overhead_ms": ms_per_op("exec.execute"),
        "exec.attempts_per_sweep": (
            sum(s[5].get("attempts", 0) for s in ok_execs) / sweeps
            if sweeps else 0.0),
        "exec.tier_fallbacks": sum(s[5].get("fallbacks", 0)
                                   for s in ok_execs) / n,
        "exec.cache_get_ms": ms_per_op("exec.cache_get"),
        "exec.cache_put_ms": ms_per_op("exec.cache_put"),
        "analytic.curve_us": (predict_s * k * 1e6 / predict_n
                              if predict_n else 0.0),
        "serve.query_ms": ms_per_op("serve.query"),
        "serve.request_ms": ms_per_op("serve.request"),
        "serve.compute_ms": (sum(s[2] - s[1] for s in served_execs)
                             * k * 1e3 / n),
        "serve.wire_ms": ((sum(traced.latencies) - query_s) * 1e3 / n
                          if name == "serve-mix" else 0.0),
        "serve.invalid_attempts": (failed_builds / len(failed_execs)
                                   if failed_execs else 0.0),
        "scenario.run_ms": ms_per_op("scenario.run"),
        "scenario.compose_ms": ms_per_op("scenario.compose"),
        "scenario.quiet_twin_ms": (
            totals.get("scenario.quiet_twin", (0, 0.0))[1] * k * 1e3 / n),
        "scenario.store_get_ms": ms_per_op("scenario.store_get"),
        "scenario.store_put_ms": ms_per_op("scenario.store_put"),
        "verify.universe_ms": ms_per_op("verify.universe"),
        "verify.build_models_ms": ms_per_op("verify.build_models"),
        "verify.library_ms": ms_per_op("verify.library"),
        "check.load_ms": ms_per_op("check.load"),
        "check.analyze_ms": ms_per_op("check.analyze"),
        "check.files": statistics.mean(loads) if loads else 0,
        "obs.trace_overhead": (statistics.mean(traced.latencies)
                               / statistics.mean(untraced.latencies)),
    }
    for entry in BENCH["per_layer"]:
        family = entry["name"].removeprefix("check.family_ms.")
        if family != entry["name"]:
            metrics[entry["name"]] = ms_per_op(f"check.family.{family}")
    # Ratios and counts of layers this workload leaves idle read 0.
    return {**{e["name"]: 0.0 for e in BENCH["per_layer"]}, **metrics,
            **workload.layer_metrics(n)}


def inputs_report(name: str, seed: int) -> None:
    import gen

    print(f"inputs digest {gen.inputs_digest(name, seed)}")
    if name == "serve-mix":
        print("input properties " + json.dumps(gen.serve_properties(seed)))
    elif name == "scenario-congestion":
        print("input properties " + json.dumps(gen.scenario_properties(seed)))


def summarize(workload) -> None:
    if hasattr(workload, "sources"):
        answered = sum(workload.sources.values()) or 1
        print("answered by tier " + json.dumps(
            {k: round(v / answered, 4) for k, v in workload.sources.items()}))
        print("invalid queries " + json.dumps(workload.invalid_summary()))


def write_trace(root: Path, args, spans) -> None:
    path = root / ".bench_out" / f"trace-{args.workload}-{args.seed}.json"
    path.write_text(json.dumps([
        {"name": n, "start": t0, "end": t1, "parent": p, "op": op, **attrs}
        for n, t0, t1, p, op, attrs in spans]))
    print(f"wrote {len(spans)} spans to {path.relative_to(root)}")


def result(problems, attempted, failed, metrics, kind) -> dict:
    for problem in problems[:20]:
        print(f"WRONG: {problem}")
    out = {entry["name"]: {"value": metrics[entry["name"]],
                           "unit": entry["unit"]}
           for entry in BENCH[kind]}
    return {"correct": not problems and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": out}


def run(args, root: Path, tmp: Path) -> dict:
    import repro

    src = (root / "src").resolve()
    if src not in Path(repro.__file__).resolve().parents:
        raise RuntimeError(f"repro imported from {repro.__file__}, not {src}")
    import tracing
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    inputs_report(args.workload, args.seed)

    if args.trace == 0:
        workload = cls(args.seed, tmp / "run")
        speed = HostSpeed()
        setup = [run_probe(root, args.workload, tmp / f"probe{i}", speed)
                 for i in range(SETUP_PROBES)]
        try:
            phase = measure(workload, tracing, seconds=args.seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            problems = workload.check()
            metrics = end_to_end(workload, phase, setup, rss_mb)
        finally:
            summarize(workload)
            workload.close()
        return result(problems, len(phase.intervals), phase.failed, metrics,
                      "end_to_end")

    untraced = cls(args.seed, tmp / "untraced")
    try:
        plain = measure(untraced, tracing, seconds=args.seconds / 2)
        problems = untraced.check()
    finally:
        untraced.close()
    tracing.install(args.workload)
    traced = cls(args.seed, tmp / "traced")
    tracing.SPANS.clear()
    try:
        spanned = measure(traced, tracing, n_ops=len(plain.intervals))
        spans = list(tracing.SPANS)
        problems += traced.check()
    finally:
        summarize(traced)
        traced.close()
    probe = run_probe(root, args.workload, tmp / "probe-imports",
                      HostSpeed(), importtime=True,
                      first_call=args.workload == "serve-mix")
    metrics = per_layer(args.workload, tracing, spans, plain, spanned, traced)
    metrics["analytic.first_call_ms"] = probe.get("first_call_ms", 0.0)
    metrics.update(import_costs(probe["stderr"], probe["scale"]))
    write_trace(root, args, spans)
    print("self ms per op: " + json.dumps(
        {k: round(v, 4) for k, v in sorted(metrics.items())
         if k.endswith("_ms") and v}))
    return result(problems, len(plain.intervals) + len(spanned.intervals),
                  plain.failed + spanned.failed, metrics, "per_layer")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from a checkout root holding src/repro",
              file=sys.stderr)
        return 2
    BENCH.update(json.loads((root / "BENCHMARK.json").read_text()))
    if args.workload not in {w["name"] for w in BENCH["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    # One core for the whole run, set-up spawns included: the calibration
    # loop then times the core the ops run on, and no op is split across
    # cores the host loads differently.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(root / "src"))
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    # The run's stores stay in .bench_out after it ends.  Deleting a
    # thousand store files at exit slowed the file creates of the runs
    # after it on an ext4 disk mounted with online discard: system time
    # per scenario op rose from 1.0 to 2.1 ms over three runs, where it
    # stays at 0.2-0.5 ms when the stores are kept.
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    outcome = run(args, root, tmp)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
