"""The four workloads: state, ops, per-op bookkeeping and output checks.

A workload object is built fresh for each measured phase.  ``run_op``
is the timed call into the program's public entry points; ``record``
keeps what the checks need and runs outside the timing.  Serve-mix
drives its own closed loop over TCP (:meth:`ServeMix.phase`).
"""

from __future__ import annotations

import asyncio
import json
import time
from pathlib import Path

import checks
import gen


def figure_requests():
    """``[(figure id, SweepRequest)]`` for every curve of figures 1-5."""
    from repro.experiments import ALL_FIGURES

    return [(fig.id, req) for fig in ALL_FIGURES for req in fig.sweep_requests()]


def anchor_rows(curves: dict[tuple[str, str], object]):
    """``(id, measured, ok, rel_err)`` for every figure anchor."""
    from repro.experiments import ALL_FIGURES

    rows = []
    for fig in ALL_FIGURES:
        results = {label: c for (fid, label), c in curves.items()
                   if fid == fig.id}
        for row in fig.audit(results=results):
            expected = row.anchor.expected
            rows.append((row.anchor.id, row.measured, row.ok,
                         abs(row.measured - expected) / abs(expected)))
    return rows


def simulate_figures() -> dict[tuple[str, str], object]:
    """All 30 figure curves at tier sim, serial, uncached."""
    from repro.exec import execute_sweeps

    pairs = figure_requests()
    results, _ = execute_sweeps([r for _, r in pairs], max_workers=1,
                                tier="sim", cache=None)
    return {(fid, r.label): res for (fid, r), res in zip(pairs, results)}


class Workload:
    """One caller, closed loop: the next op starts when the last ends."""

    name = ""

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.problems: list[str] = []

    def ops(self):
        raise NotImplementedError

    def run_op(self, op):
        raise NotImplementedError

    def record(self, op, output) -> None:
        pass

    def check(self) -> list[str]:
        return self.problems

    def figure_curves(self) -> dict:
        """Curves to audit the paper's anchors against."""
        return simulate_figures()

    def layer_metrics(self, ops: int) -> dict[str, float]:
        return {}

    def close(self) -> None:
        pass


class PaperSim(Workload):
    """All 30 figure curves, one sweep per op, tier sim, no cache."""

    name = "paper-sim"

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        from repro.exec import execute_sweeps

        self.execute_sweeps = execute_sweeps
        self.requests = figure_requests()
        self.first: dict[tuple[str, str], object] = {}

    def ops(self):
        return gen.paper_sim_ops(self.seed, len(self.requests))

    def run_op(self, index):
        fid, request = self.requests[index]
        results, _ = self.execute_sweeps([request], max_workers=1,
                                         tier="sim", cache=None)
        return results[0]

    def record(self, index, result) -> None:
        fid, request = self.requests[index]
        key = (fid, request.label)
        if key not in self.first:
            self.first[key] = result
        else:
            self.problems += checks.check_repeats(self.first, [(key, result)])

    def figure_curves(self):
        curves = dict(self.first)
        if len(curves) < len(self.requests):
            curves = {**simulate_figures(), **curves}
        return curves

    def check(self):
        from repro.experiments import ALL_FIGURES

        root = Path.cwd()
        golden = json.loads(
            (root / "tests" / "golden_curves.json").read_text())["digests"]
        curves = self.figure_curves()
        digests = {key: checks.curve_digest(c) for key, c in curves.items()}
        problems = list(self.problems)
        if set(golden) != {fig.id for fig in ALL_FIGURES}:
            problems.append(f"golden digests cover figures {sorted(golden)}")
        problems += checks.check_golden(digests, golden)
        rows = anchor_rows(curves)
        problems += checks.check_anchors([r[:3] for r in rows])
        return problems


class ScenarioCongestion(Workload):
    """Seeded whole-cluster scenarios on a fresh scenario store."""

    name = "scenario-congestion"

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        from repro.scenario import ScenarioSpec, ScenarioStore, run_scenario

        self.spec_cls = ScenarioSpec
        self.run_scenario = run_scenario
        self.store = ScenarioStore(tmp / "scenarios")
        self.rows: list[tuple[str, bool, float]] = []
        self.cached = 0
        self.attempts = 0
        self.computed = 0

    def ops(self):
        return gen.scenario_ops(self.seed)

    def run_op(self, spec_data):
        spec = self.spec_cls.from_jsonable(spec_data)
        return self.run_scenario(spec, self.store)

    def record(self, spec_data, output) -> None:
        result, report = output
        congested = "traffic" in spec_data
        self.rows.append((spec_data["name"], congested, result.slowdown))
        if report.cached:
            self.cached += 1
        else:
            self.computed += 1
            self.attempts += report.attempts

    def check(self):
        from repro.exec import SweepRequest, execute_sweeps
        from repro.scenario import resolve_config, resolve_library

        spec = self.spec_cls.from_jsonable(gen.QUIET_TWO_NODE)
        result, _ = self.run_scenario(spec, None)
        request = SweepRequest(
            label=spec.library, library=resolve_library(spec.library),
            config=resolve_config(spec), sizes=spec.workload.sizes)
        [direct], _ = execute_sweeps([request], max_workers=1, tier="sim",
                                     cache=None)
        return (self.problems + checks.check_slowdowns(self.rows)
                + checks.check_two_node(result.curve, direct))

    def layer_metrics(self, ops):
        return {
            "scenario.store_hit_ratio": self.cached / max(ops, 1),
            "scenario.attempts_per_op": self.attempts / max(self.computed, 1),
        }


#: The endpoint models' sources, relative to the checkout root.
MPLIB_SOURCES = "src/repro/mplib"


class DevCheck(Workload):
    """``analyze_paths(["src"])`` then ``verify_universe()``, CLI defaults
    but for where the endpoint models are compiled from.

    ``verify_universe()`` compiles them from ``repro.mplib``'s absolute
    directory, and the analyzer skips every file whose absolute path has
    a directory starting with ``.``, so in a checkout below such a
    directory it compiles no model and raises ``KeyError``.  The op
    compiles the same sources by their checkout-relative path
    (:data:`MPLIB_SOURCES`), as ``analyze_paths(["src"])`` does.
    """

    name = "dev-check"

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        from repro.check.analyzer import analyze_paths
        from repro.verify import build_models, verify_universe

        self.analyze_paths = analyze_paths
        self.build_models = build_models
        self.verify_universe = verify_universe
        self.counts: dict[str, int] = {}

    def ops(self):
        while True:
            yield ["src"]

    def run_op(self, paths):
        findings = self.analyze_paths(paths)
        models = self.build_models([MPLIB_SOURCES])
        return findings, self.verify_universe(models=models)

    def record(self, paths, output) -> None:
        findings, report = output
        observed = {
            "findings": len(findings),
            "configs": len(report.verdicts),
            "path_pairs": sum(v.path_pairs for v in report.verdicts),
            "fault_runs": sum(v.fault_runs for v in report.verdicts),
            "counterexamples": len(report.counterexamples),
        }
        self.counts = observed
        self.problems += checks.check_dev(observed)

    def layer_metrics(self, ops):
        return {"verify.path_pairs": self.counts.get("path_pairs", 0),
                "verify.fault_scenarios": self.counts.get("fault_runs", 0)}


class ServeMix(Workload):
    """Two closed-loop TCP clients against an in-process serving stack."""

    name = "serve-mix"
    connections = 2
    #: Seconds between calibration pauses, and spins per pause.
    PAUSE_EVERY = 0.5
    PAUSE_SAMPLES = 3

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        from repro.analytic import default_band_store
        from repro.exec import ExecPolicy, SweepCache
        from repro.serve import ServeCore, ServeFrontend

        default_band_store()
        self.loop = asyncio.new_event_loop()
        self.core = ServeCore(cache=SweepCache(tmp / "sweeps"),
                              policy=ExecPolicy.resolve(tier="auto"))
        self.frontend = ServeFrontend(self.core)
        self.loop.run_until_complete(self.frontend.start())
        self.sources = {s: 0 for s in ("hot", "coalesced", "disk",
                                       "analytic", "sim")}
        #: First curve answered per (curve key, tier); every later answer
        #: for the pair must equal it.
        self.curves: dict[tuple[str, str], dict] = {}
        self.crossovers: dict[str, tuple[dict, dict]] = {}
        self.invalid: list[tuple[str, dict]] = []
        self.refused: list[dict] = []
        self.shed = 0

    def ops(self):
        return gen.serve_ops(self.seed)

    def phase(self, speed, seconds=None, n_ops=None, on_op=None):
        """Run the closed loop: ``([(t0, t1)] per op, [(t0, t1)] per
        stretch between pauses)``.

        Every PAUSE_EVERY seconds both clients finish their query and
        wait while ``speed`` samples the host; nothing of the program
        runs then, and the pauses are not counted as busy time."""
        return self.loop.run_until_complete(
            self._phase(speed, seconds, n_ops, on_op))

    async def _phase(self, speed, seconds, n_ops, on_op):
        host, port = self.frontend.address
        conns = [await asyncio.open_connection(host, port, limit=1 << 22)
                 for _ in range(self.connections)]
        stream = self.ops()
        intervals: list[tuple[float, float]] = []
        slices: list[tuple[float, float]] = []
        issued = [0]

        def more(now: float, t_slice: float) -> bool:
            if n_ops is not None:
                return issued[0] < n_ops
            busy = sum(t1 - t0 for t0, t1 in slices)
            return busy + now - t_slice < seconds

        async def client(reader, writer, t_slice):
            now = time.perf_counter()
            while more(now, t_slice) and now - t_slice < self.PAUSE_EVERY:
                op_id = issued[0]
                issued[0] += 1
                query, kind = next(stream)
                if on_op is not None:
                    on_op(op_id)
                line = json.dumps({"op": "query", "query": query})
                t0 = time.perf_counter()
                writer.write(line.encode() + b"\n")
                await writer.drain()
                raw = await reader.readline()
                now = time.perf_counter()
                intervals.append((t0, now))
                self.record_answer(query, kind, json.loads(raw))

        try:
            speed.sample(self.PAUSE_SAMPLES)
            while more(0.0, 0.0):
                t_slice = time.perf_counter()
                await asyncio.gather(*(client(r, w, t_slice)
                                       for r, w in conns))
                slices.append((t_slice, time.perf_counter()))
                speed.sample(self.PAUSE_SAMPLES)
        finally:
            for _, writer in conns:
                writer.close()
                await writer.wait_closed()
        intervals.sort()
        return intervals, slices

    def record_answer(self, query, kind, doc) -> None:
        if kind is not None:
            self.invalid.append((kind, doc))
            return
        if not doc.get("ok"):
            if doc.get("error", {}).get("kind") == "overloaded":
                self.shed += 1
            self.refused.append(doc)
            return
        response = doc["response"]
        source = response["source"]
        if source == "computed":
            source = response["tier"]
        self.sources[source] += 1
        key = (json.dumps(
            {k: v for k, v in query.items() if k != "compare_with"},
            sort_keys=True), response["tier"])
        first = self.curves.setdefault(key, response["curve"])
        if response["curve"] != first:
            self.problems.append(f"{source} answer for {key} differs from "
                                 "the first answer")
        if "crossover" in response:
            key = json.dumps(query, sort_keys=True)
            self.crossovers.setdefault(key, (query, response["crossover"]))

    def failed(self) -> int:
        return len(self.refused)

    def check(self):
        from repro.analysis.compare import crossover_size
        from repro.core.io import result_from_dict
        from repro.exec import execute_sweeps
        from repro.serve import ServeQuery

        def direct(queries: list[dict], tier: str) -> list:
            requests = [ServeQuery.from_jsonable(q).resolve() for q in queries]
            results, _ = execute_sweeps(requests, max_workers=1, tier=tier,
                                        cache=None)
            return results

        served, expected = {}, {}
        for tier in ("analytic", "sim"):
            keys = [k for k in self.curves if k[1] == tier]
            results = direct([json.loads(k) for k, _ in keys], tier)
            for key, result in zip(keys, results):
                served[key] = result_from_dict(self.curves[key])
                expected[key] = result
        got, want = {}, {}
        for key, (query, block) in self.crossovers.items():
            mine_q = {k: v for k, v in query.items() if k != "compare_with"}
            other_q = {**mine_q, "library": query["compare_with"]}
            mine, other = direct([mine_q, other_q], "auto")
            got[key] = block
            want[key] = json.loads(json.dumps({
                "versus": query["compare_with"],
                "overtakes_at": crossover_size(mine, other),
                "overtaken_at": crossover_size(other, mine),
                "versus_max_mbps": other.max_mbps,
                "versus_latency_us": other.latency_us,
            }))
        return (self.problems + checks.check_invalid(self.invalid)
                + checks.check_valid(self.refused)
                + checks.check_served(served, expected)
                + checks.check_crossovers(got, want))

    def layer_metrics(self, ops):
        answered = sum(self.sources.values())
        hot_misses = answered - self.sources["hot"] - self.sources["coalesced"]
        mistyped = sum(1 for _, doc in self.invalid
                       if doc.get("error", {}).get("kind") != "bad-request")
        out = {f"serve.share.{s}": n / max(answered, 1)
               for s, n in self.sources.items() if s != "analytic"}
        out.update({
            "analytic.share": self.sources["analytic"] / max(answered, 1),
            "serve.hot_hit_ratio": self.sources["hot"] / max(answered, 1),
            "serve.disk_hit_ratio": self.sources["disk"] / max(hot_misses, 1),
            "serve.coalesced": self.sources["coalesced"],
            "serve.shed": self.shed,
            "serve.invalid_share": len(self.invalid) / max(ops, 1),
            "serve.invalid_mistyped_share":
                mistyped / max(len(self.invalid), 1),
            "serve.distinct_curves": len(self.curves),
        })
        return out

    def invalid_summary(self) -> dict:
        kinds: dict[str, dict[str, int]] = {}
        for kind, doc in self.invalid:
            error = doc.get("error", {}).get("kind", "answered")
            kinds.setdefault(kind, {}).setdefault(error, 0)
            kinds[kind][error] += 1
        return {"by_kind": kinds,
                "retries_in_stats": self.core.stats()["exec"]["retries"]}

    def close(self):
        self.loop.run_until_complete(self.frontend.aclose())
        self.loop.run_until_complete(self.loop.shutdown_default_executor())
        self.loop.close()


WORKLOADS = {w.name: w for w in (PaperSim, ServeMix, ScenarioCongestion,
                                 DevCheck)}
