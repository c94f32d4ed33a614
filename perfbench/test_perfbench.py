"""Tests of the benchmark itself: seeded inputs and output checks.

Run from the repository root::

    python3 -m pytest perfbench -q

Each check is shown to pass on the program's real output and to reject
a deliberately wrong one.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402

SEEDED = ("paper-sim", "serve-mix", "scenario-congestion")


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


# -- seeded inputs -------------------------------------------------------------

@pytest.mark.parametrize("workload", SEEDED)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    assert gen.inputs_digest(workload, 7) == gen.inputs_digest(workload, 7)
    assert gen.inputs_digest(workload, 7) != gen.inputs_digest(workload, 8)


def test_dev_check_inputs_are_fixed():
    assert gen.inputs_digest("dev-check", 1) == gen.inputs_digest("dev-check", 2)


def test_serve_inputs_cover_the_tiers():
    props = gen.serve_properties(3)
    assert props["population_over_hot"] >= 2
    assert props["distinct_in_first_ops"] > 2 * gen.HOT_CAPACITY
    assert props["invalid_share"] == 1 / gen.INVALID_EVERY
    assert 0.1 < props["compare_share"] < 0.3
    population = gen.serve_population(3)
    assert all(gen.compatible(q["library"], q["config"]) for q in population)


def test_scenario_inputs_spread_ranks_and_repeat():
    props = gen.scenario_properties(3)
    assert (props["ranks_min"], props["ranks_max"]) == (2, 16)
    assert 0.1 < props["repeated_share"] < 0.5
    assert props["faulty_share"] > 0
    assert props["two_tier_share"] > 0


# -- paper-sim -----------------------------------------------------------------

def _perturbed(result):
    point = result.points[3]
    points = list(result.points)
    points[3] = dataclasses.replace(point, oneway_time=point.oneway_time * 1.01)
    return dataclasses.replace(result, points=points)


@pytest.fixture(scope="module")
def paper_run(tmp_path_factory):
    wl = workloads.PaperSim(1, tmp_path_factory.mktemp("paper"))
    stream = wl.ops()
    for _ in range(31):
        op = next(stream)
        wl.record(op, wl.run_op(op))
    return wl


def test_paper_sim_accepts_real_curves(paper_run, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert paper_run.check() == []


def test_paper_sim_rejects_a_wrong_curve(paper_run, monkeypatch):
    monkeypatch.chdir(ROOT)
    key = next(iter(paper_run.first))
    good = paper_run.first[key]
    monkeypatch.setitem(paper_run.first, key, _perturbed(good))
    problems = paper_run.check()
    assert any("digest" in p for p in problems)


def test_paper_sim_rejects_a_changed_repeat(paper_run):
    key, first = next(iter(paper_run.first.items()))
    assert checks.check_repeats(paper_run.first, [(key, first)]) == []
    assert checks.check_repeats(paper_run.first, [(key, _perturbed(first))])


def test_anchor_check_rejects_a_miss_and_a_missing_anchor():
    rows = [(f"a{i}", 1.0, True) for i in range(checks.ANCHOR_COUNT)]
    assert checks.check_anchors(rows) == []
    assert checks.check_anchors(rows[:-1] + [("a", 9.0, False)])
    assert checks.check_anchors(rows[:-1])


# -- serve-mix -----------------------------------------------------------------

@pytest.fixture(scope="module")
def serve_run(tmp_path_factory):
    wl = workloads.ServeMix(2, tmp_path_factory.mktemp("serve"))
    wl.phase(HostSpeed(), n_ops=3 * gen.INVALID_EVERY)
    yield wl
    wl.close()


def test_serve_mix_accepts_real_answers(serve_run):
    assert serve_run.sources["hot"] > 0
    assert len(serve_run.invalid) == 3
    assert serve_run.check() == []


def test_serve_mix_rejects_a_wrong_curve(serve_run, monkeypatch):
    key, curve = next(iter(serve_run.curves.items()))
    wrong = json.loads(json.dumps(curve))
    wrong["points"][0]["oneway_time"] *= 1.5
    monkeypatch.setitem(serve_run.curves, key, wrong)
    assert any("differs from execute_sweeps" in p for p in serve_run.check())


def test_serve_mix_rejects_a_wrong_later_hot_answer(serve_run, monkeypatch):
    (curve_key, tier), curve = next(iter(serve_run.curves.items()))
    query = json.loads(curve_key)
    good = {"ok": True, "response": {"source": "hot", "tier": tier,
                                     "curve": curve}}
    monkeypatch.setattr(serve_run, "problems", [])
    serve_run.record_answer(query, None, json.loads(json.dumps(good)))
    assert serve_run.check() == []
    wrong = json.loads(json.dumps(good))
    wrong["response"]["curve"]["points"][-1]["oneway_time"] *= 1.001
    serve_run.record_answer(query, None, wrong)
    assert any("hot answer" in p and "differs from the first" in p
               for p in serve_run.check())


def test_serve_mix_rejects_an_answered_invalid_query(serve_run):
    assert checks.check_invalid([("mismatch", {"ok": False})]) == []
    assert checks.check_invalid([("mismatch", {"ok": True})])


def test_serve_mix_rejects_a_wrong_crossover(serve_run, monkeypatch):
    if not serve_run.crossovers:
        pytest.skip("no compare_with query in this short run")
    key, (query, block) = next(iter(serve_run.crossovers.items()))
    monkeypatch.setitem(serve_run.crossovers, key,
                        (query, {**block, "versus_max_mbps": -1.0}))
    assert any("crossover" in p for p in serve_run.check())


def test_serve_mix_counts_refused_valid_queries():
    assert checks.check_valid([{"ok": True}]) == []
    assert checks.check_valid([{"ok": False, "error": {"kind": "x"}}])


# -- scenario-congestion -------------------------------------------------------

@pytest.fixture(scope="module")
def scenario_run(tmp_path_factory):
    wl = workloads.ScenarioCongestion(1, tmp_path_factory.mktemp("scen"))
    stream = wl.ops()
    for _ in range(12):
        op = next(stream)
        wl.record(op, wl.run_op(op))
    return wl


def test_scenario_accepts_real_results(scenario_run):
    assert scenario_run.check() == []


def test_scenario_rejects_a_congested_speedup(scenario_run, monkeypatch):
    monkeypatch.setattr(scenario_run, "rows",
                        scenario_run.rows + [("x", True, 0.97)])
    assert any("< 1" in p for p in scenario_run.check())
    assert checks.check_slowdowns([("cpu-only", False, 0.97)]) == []
    assert checks.check_slowdowns([("cpu-only", False, float("nan"))])


def test_scenario_rejects_a_two_node_mismatch(scenario_run):
    from repro.exec import execute_sweeps
    from repro.serve import ServeQuery

    request = ServeQuery(library="mpich", sizes=(1, 1024)).resolve()
    [curve], _ = execute_sweeps([request], tier="sim")
    assert checks.check_two_node(curve, curve) == []
    assert checks.check_two_node(_perturbed_short(curve), curve)
    assert checks.check_two_node(None, curve)


def _perturbed_short(result):
    points = list(result.points)
    points[0] = dataclasses.replace(points[0], oneway_time=1.0)
    return dataclasses.replace(result, points=points)


# -- dev-check -----------------------------------------------------------------

def test_dev_check_rejects_findings_and_changed_totals():
    good = dict(checks.DEV_EXPECTED)
    assert checks.check_dev(good) == []
    assert checks.check_dev({**good, "findings": 1})
    assert checks.check_dev({**good, "path_pairs": 530})
    assert checks.check_dev({**good, "counterexamples": 2})


def test_dev_check_rejects_a_wrong_report(tmp_path):
    wl = workloads.DevCheck(1, tmp_path)
    from repro.verify import verify_universe

    report = verify_universe(["mpich", "lam"])
    wl.record(["src"], ([], report))
    assert any(p.startswith("configs") for p in wl.check())


def test_dev_check_compiles_the_default_models():
    from repro.verify import build_models

    models = build_models([workloads.MPLIB_SOURCES])
    assert models and models.keys() == build_models().keys()


@pytest.mark.xfail(strict=True, reason=(
    "known defect: repro.check.analyzer.iter_python_files skips every file "
    "whose absolute path has a directory starting with '.', so "
    "build_models() compiles nothing in a checkout below one"))
def test_models_compile_below_a_hidden_directory(tmp_path):
    import shutil

    from repro.verify import build_models

    hidden = tmp_path / ".checkout" / "mplib"
    shutil.copytree(workloads.MPLIB_SOURCES, hidden)
    assert build_models([hidden]).keys() == build_models().keys()


# -- traced run ----------------------------------------------------------------

LAYER_SUM = """
import json, statistics, sys
sys.path[:0] = ["perfbench", "src"]
import run, tracing, workloads
tracing.install("scenario-congestion")
wl = workloads.ScenarioCongestion(1, run.Path(sys.argv[1]))
phase = run.measure(wl, tracing, n_ops=4)
spans = list(tracing.SPANS)
print(json.dumps({
    "ops": sorted({s[4] for s in spans}),
    "self_s_per_op": sum(tracing.self_times(spans).values()) / 4,
    "op_s": statistics.mean(phase.raw),
}))
"""


def test_traced_self_times_fit_in_the_traced_ops(tmp_path):
    """Spans of the untimed warm-up op are not charged to measured ops."""
    out = subprocess.run([sys.executable, "-c", LAYER_SUM, str(tmp_path)],
                         cwd=ROOT, capture_output=True, text=True, check=True)
    got = json.loads(out.stdout.splitlines()[-1])
    assert got["ops"] == [0, 1, 2, 3]
    assert 0 < got["self_s_per_op"] <= got["op_s"]


# -- metrics -------------------------------------------------------------------

def test_percentile_interpolates_between_neighbours():
    import run

    value, beyond = run.percentile([float(x) for x in range(10, 0, -1)], 0.9)
    assert value == pytest.approx(9.1)
    assert beyond == 1
    assert run.percentile([4.0], 0.9) == (4.0, 0)
