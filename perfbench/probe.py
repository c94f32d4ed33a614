"""Set-up probe: a fresh interpreter brought to ready for the first op.

Run from the checkout root as ``python3 perfbench/probe.py <workload>
<tmpdir> [--first-call]``.  It prints ``ready`` once the workload could
issue its first op; the parent times the interval from spawn to that
line.  ``--first-call`` then times one analytic curve (serve-mix only)
and prints ``first_call_ms <value>``.
"""

import asyncio
import sys
import time
from pathlib import Path


def setup(workload: str, tmp: Path) -> None:
    if workload == "paper-sim":
        from repro.exec import execute_sweeps  # noqa: F401
        from repro.experiments import ALL_FIGURES

        [r for fig in ALL_FIGURES for r in fig.sweep_requests()]
    elif workload == "serve-mix":
        from repro.analytic import default_band_store
        from repro.exec import ExecPolicy, SweepCache
        from repro.serve import ServeCore, ServeFrontend

        async def listen():
            core = ServeCore(cache=SweepCache(tmp / "sweeps"),
                             policy=ExecPolicy.resolve(tier="auto"))
            frontend = ServeFrontend(core)
            await frontend.start()
            default_band_store()
            return frontend

        loop = asyncio.new_event_loop()
        frontend = loop.run_until_complete(listen())
        print("ready", flush=True)
        loop.run_until_complete(frontend.aclose())
        loop.close()
        return
    elif workload == "scenario-congestion":
        from repro.scenario import ScenarioStore, run_scenario  # noqa: F401

        ScenarioStore(tmp / "scenarios")
    elif workload == "dev-check":
        from repro.check.analyzer import analyze_paths  # noqa: F401
        from repro.verify import build_models, verify_universe  # noqa: F401

        # By relative path, as the dev-check op does (workloads.DevCheck).
        build_models(["src/repro/mplib"])
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    print("ready", flush=True)


def first_analytic_call() -> float:
    from repro.analytic import predict_sweep
    from repro.serve import ServeQuery

    request = ServeQuery(library="mpich", config="pc_netgear_ga620").resolve()
    t0 = time.perf_counter()
    predict_sweep(request.library, request.config)
    return (time.perf_counter() - t0) * 1e3


if __name__ == "__main__":
    workload, tmp = sys.argv[1], Path(sys.argv[2])
    setup(workload, tmp)
    if "--first-call" in sys.argv[3:]:
        print(f"first_call_ms {first_analytic_call()!r}", flush=True)
