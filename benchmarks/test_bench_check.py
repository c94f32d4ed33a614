"""Bench: a whole-project check, with no cache, stays under 2s.

``repro check`` keeps nothing on disk between runs: every run parses
each file once, builds one import map per module that every rule
family shares, and summarizes each module once for the
interprocedural families.  This guard pins both halves of that
contract.  The structural claims come first (one parse and one
summary list per file, zero findings on ``src``); then a second,
uninstrumented whole-src run — every family including async-* and
fp-* — must finish inside a 2-second budget.
"""

from __future__ import annotations

import ast
import collections
import time
from pathlib import Path

from conftest import report

from repro.check import dataflow
from repro.check.analyzer import analyze_project
from repro.check.project import Project

SRC = Path(__file__).resolve().parent.parent / "src"

BUDGET_S = 2.0


def _timed_run():
    start = time.perf_counter()
    project = Project.from_paths([SRC])
    findings = analyze_project(project)
    elapsed = time.perf_counter() - start
    return project, findings, elapsed


def test_whole_project_run_stays_under_budget(monkeypatch):
    parses = collections.Counter()
    summaries = collections.Counter()
    real_parse = ast.parse
    real_summarize = dataflow.summarize_module

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parses[str(filename)] += 1
        return real_parse(source, filename, *args, **kwargs)

    def counting_summarize(ctx):
        summaries[ctx.path] += 1
        return real_summarize(ctx)

    with monkeypatch.context() as patch:
        patch.setattr(ast, "parse", counting_parse)
        patch.setattr(dataflow, "summarize_module", counting_summarize)
        first_project, first_findings, first_s = _timed_run()

    # Structural claims first: each file parsed once, summarized once.
    paths = [ctx.path for ctx in first_project.modules]
    assert first_findings == []
    assert first_project.stats.files == len(paths) > 0
    assert {p: parses[p] for p in paths} == dict.fromkeys(paths, 1)
    assert summaries == collections.Counter(dict.fromkeys(paths, 1))

    # Then the wall-clock contract CI enforces.
    project, findings, elapsed_s = _timed_run()
    assert findings == []
    assert elapsed_s < BUDGET_S, (
        f"whole-project check took {elapsed_s:.2f}s "
        f"(budget {BUDGET_S:.1f}s)"
    )

    report(
        "repro check whole-project budget (all families, no cache)",
        "\n".join(
            [
                f"files analyzed     {project.stats.files}",
                f"first run          {first_s * 1e3:8.1f} ms "
                "(instrumented, includes imports)",
                f"timed run          {elapsed_s * 1e3:8.1f} ms",
                f"budget             {BUDGET_S * 1e3:8.1f} ms",
            ]
        ),
    )
