"""Correctness checks on workload outputs.

Each check takes plain outputs and returns a list of problems (empty
means correct), so the benchmark's tests can hand it a deliberately
wrong output and see it rejected.
"""

from __future__ import annotations

import hashlib

#: dev-check expectations at the commit the benchmark was defined on.
DEV_EXPECTED = {"findings": 0, "configs": 30, "path_pairs": 531,
                "fault_runs": 867, "counterexamples": 0}
ANCHOR_COUNT = 37


def curve_digest(result) -> str:
    """SHA-256 of a curve's canonical form (as ``tests/golden_curves.json``)."""
    from repro.exec import canonicalize

    return hashlib.sha256(canonicalize(result).encode("utf-8")).hexdigest()


# -- paper-sim -----------------------------------------------------------------

def check_golden(digests: dict[tuple[str, str], str],
                 golden: dict[str, dict[str, str]]) -> list[str]:
    """Every pinned figure curve was produced and matches its digest."""
    problems = []
    for fig, curves in golden.items():
        for label, pinned in curves.items():
            got = digests.get((fig, label))
            if got is None:
                problems.append(f"{fig}/{label}: curve not produced")
            elif got != pinned:
                problems.append(f"{fig}/{label}: digest {got[:12]} != "
                                f"pinned {pinned[:12]}")
    return problems


def check_repeats(first: dict, later: list[tuple[str, object]]) -> list[str]:
    """Every repeat of a curve equals its first run, bit for bit."""
    return [f"{key}: repeat differs from first run"
            for key, result in later if result != first[key]]


def check_anchors(rows: list[tuple[str, float, bool]]) -> list[str]:
    """All figure anchors pass (rows of ``(id, measured, ok)``)."""
    problems = [f"anchor {aid} missed (measured {measured:.1f})"
                for aid, measured, ok in rows if not ok]
    if len(rows) != ANCHOR_COUNT:
        problems.append(f"{len(rows)} anchors audited, expected "
                        f"{ANCHOR_COUNT}")
    return problems


# -- serve-mix -----------------------------------------------------------------

def check_served(served: dict[str, object],
                 direct: dict[str, object]) -> list[str]:
    """Each distinct served curve equals the direct executor's curve."""
    return [f"served curve for {key} differs from execute_sweeps"
            for key, curve in served.items() if curve != direct.get(key)]


def check_crossovers(served: dict[str, dict],
                     direct: dict[str, dict]) -> list[str]:
    """Crossover blocks equal the ones computed from direct curves."""
    return [f"crossover for {key} differs: {block} != {direct.get(key)}"
            for key, block in served.items() if block != direct.get(key)]


def check_invalid(answers: list[tuple[str, dict]]) -> list[str]:
    """An invalid query is refused: ``(kind, response document)`` pairs."""
    return [f"invalid {kind} query was answered with a curve"
            for kind, doc in answers if doc.get("ok")]


def check_valid(answers: list[dict]) -> list[str]:
    """A valid query gets a curve, not an error."""
    return [f"valid query refused: {doc.get('error')}"
            for doc in answers if not doc.get("ok")]


# -- scenario-congestion -------------------------------------------------------

def check_slowdowns(rows: list[tuple[str, bool, float]]) -> list[str]:
    """Background traffic never speeds a job up: rows of ``(name,
    congested, slowdown)``, congested meaning the spec has traffic.

    CPU contention alone may: a hog on half the ranks of a halo can
    stagger its exchanges enough to relieve a shared uplink.  Those
    slowdowns need only be positive and finite.
    """
    problems = [f"{name}: slowdown {slowdown!r} is not a positive number"
                for name, _, slowdown in rows if not 0.0 < slowdown < 1e300]
    return problems + [f"{name}: congested slowdown {slowdown!r} < 1"
                       for name, congested, slowdown in rows
                       if congested and not slowdown >= 1.0]


def check_two_node(scenario_curve, sweep_curve) -> list[str]:
    """A quiet 2-rank crossbar ping-pong is the figures' sweep path."""
    if scenario_curve is None or scenario_curve != sweep_curve:
        return ["quiet two-node scenario curve differs from execute_sweeps"]
    return []


# -- dev-check -----------------------------------------------------------------

def check_dev(observed: dict[str, int]) -> list[str]:
    """0 findings on src/, and the verify universe's pinned totals."""
    return [f"{key}: {observed.get(key)} != expected {want}"
            for key, want in DEV_EXPECTED.items()
            if observed.get(key) != want]
