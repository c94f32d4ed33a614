"""The examples/ directory must keep running — they are documentation.

Each example's ``main()`` is executed with stdout captured; a broken
example fails here before a user finds it.
"""

import re
import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "reproduce_figure1.py",
    "tuning_study.py",
    "custom_hardware.py",
    "cluster_applications.py",
    "custom_rank_program.py",
    "trace_timelines.py",
    "regression_check.py",
    "cluster_design_study.py",
]

SOCKET_EXAMPLES = ["live_loopback.py"]


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_example_runs(name, capsys, monkeypatch):
    # Examples may read sys.argv; give them a clean command line.
    monkeypatch.setattr(sys, "argv", [name])
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    out = capsys.readouterr().out
    assert len(out) > 100  # every example narrates its result


def test_example_inventory_complete():
    on_disk = {p.name for p in EXAMPLES.glob("*.py")}
    assert on_disk == set(FAST_EXAMPLES) | set(SOCKET_EXAMPLES)


def test_live_loopback_example_runs(capsys):
    runpy.run_path(str(EXAMPLES / "live_loopback.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "loopback" in out
    # The 16 KB sweep must be window-bound, not timer-bound.  Refilling
    # a 16 KB window once per loopback round trip (tens of us) moves
    # Gb/s; a window larger than the MSS-clamped segments waits on a
    # kernel timer instead and moves a few Mb/s.  100 Mb/s sits more
    # than an order of magnitude from both.
    found = re.search(r"1 MB throughput from (\d+) to (\d+) Mb/s", out)
    assert found, out
    small_buffers_mbps = float(found.group(2))
    assert small_buffers_mbps >= 100, (
        f"16 KB buffers moved 1 MB at {small_buffers_mbps:.0f} Mb/s: "
        "timer-bound, not window-bound"
    )


def test_quickstart_states_the_headline(capsys):
    runpy.run_path(str(EXAMPLES / "quickstart.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "MPICH" in out and "raw TCP" in out
    assert "%" in out  # the fraction-of-TCP conclusion
