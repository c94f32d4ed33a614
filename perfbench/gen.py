"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of the seed: no repro import, no
clock, no environment.  The program under test receives only what these
functions return, and :func:`digest` hashes it so a test can show that
one seed always yields the same inputs and another seed different ones.

The library/config vocabulary is pinned below rather than read from the
program, so a change to the program can never change the inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import count

# -- pinned vocabulary ---------------------------------------------------------

CONFIGS = (
    "ds20_netgear_ga622", "ds20_syskonnect_jumbo", "pc_giganet",
    "pc_myrinet", "pc_netgear_ga620", "pc_syskonnect", "pc_trendnet",
)
#: Configs whose NIC accepts a 9000-byte MTU.
JUMBO_CONFIGS = frozenset({
    "ds20_syskonnect_jumbo", "pc_giganet", "pc_myrinet", "pc_netgear_ga620",
    "pc_syskonnect",
})
#: Libraries that run over Myrinet GM only.
GM_LIBS = (
    "ip-gm", "mpich-gm", "mpipro-gm", "raw-gm", "raw-gm-blocking",
    "raw-gm-polling",
)
#: Libraries over VIA, which has no Myrinet provider.
VIA_LIBS = (
    "mpipro-via", "mpipro-via-untuned", "mplite-via", "mvich",
    "mvich-low-spin", "mvich-no-rput", "mvich-untuned",
)
#: Libraries over TCP sockets, which run on every config.
TCP_LIBS = (
    "lam", "lam-c2c", "lam-lamd", "mpich", "mpich-mplite", "mpich-untuned",
    "mpipro", "mpipro-untuned", "mplite", "mplite-untuned", "pvm",
    "pvm-default", "pvm-direct", "raw-tcp", "raw-tcp-untuned", "tcgmsg",
    "tcgmsg-recompiled",
)
LIBRARIES = tuple(sorted(GM_LIBS + VIA_LIBS + TCP_LIBS))

#: The (library, config) pairs the paper's figures plot; the program
#: holds engine-validated analytic bands for these.
FIGURE_PAIRS = tuple(
    [(lib, "pc_netgear_ga620") for lib in
     ("raw-tcp", "mpich", "lam", "mpipro", "mplite", "pvm", "tcgmsg",
      "mplite-untuned")]
    + [(lib, "pc_trendnet") for lib in
       ("raw-tcp", "mpich", "lam", "mpipro", "mplite", "pvm", "tcgmsg",
        "mplite-untuned")]
    + [(lib, "ds20_syskonnect_jumbo") for lib in
       ("raw-tcp", "lam", "mplite", "pvm", "tcgmsg", "mplite-untuned")]
    + [(lib, "pc_myrinet") for lib in
       ("raw-gm", "mpich-gm", "mpipro-gm", "ip-gm")]
    + [("mplite-via", "pc_giganet"), ("mvich", "pc_giganet"),
       ("mplite-via", "pc_syskonnect"), ("mvich-untuned", "pc_syskonnect")]
)


def configs_for(library: str) -> tuple[str, ...]:
    """The configs a library can run on."""
    if library in GM_LIBS:
        return ("pc_myrinet",)
    if library in VIA_LIBS:
        return tuple(c for c in CONFIGS if c != "pc_myrinet")
    return CONFIGS


def compatible(library: str, config: str) -> bool:
    return config in configs_for(library)


VALID_PAIRS = tuple(
    (lib, cfg) for lib in LIBRARIES for cfg in configs_for(lib)
)


def digest(inputs) -> str:
    """SHA-256 of the canonical JSON form of generated inputs."""
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _zipf_cum(n: int, s: float) -> list[float]:
    total, out = 0.0, []
    for rank in range(1, n + 1):
        total += 1.0 / rank ** s
        out.append(total)
    return out


# -- paper-sim -----------------------------------------------------------------

def paper_sim_ops(seed: int, n_curves: int = 30):
    """Infinite stream of curve indices: passes over all ``n_curves``
    figure curves, each pass in a seeded order."""
    rng = random.Random(f"paper-sim/{seed}")
    while True:
        order = list(range(n_curves))
        rng.shuffle(order)
        yield from order


# -- serve-mix -----------------------------------------------------------------

#: Hot-tier capacity of ``ServeCore`` at its defaults (``--hot-size``).
HOT_CAPACITY = 128
#: Distinct query keys in the population: 3x the hot capacity, so the
#: disk tier is both written and read after evictions.
SERVE_POPULATION = 3 * HOT_CAPACITY
ZIPF_S = 1.0
#: Explicit size subsets a query may ask for instead of the full schedule.
SIZE_SUBSETS = (
    (1, 64, 1024, 8192, 65536),
    (16, 256, 4096, 131072, 1048576),
)
#: Every INVALID_EVERY ops, exactly one is invalid (a fixed 2% share).
INVALID_EVERY = 50
#: Invalid kinds in rotation; a mismatch is a library on a config its
#: transport cannot run on.  The correct answer to each is bad-request.
INVALID_KINDS = ("unknown-library", "unknown-config", "unknown-library",
                 "mismatch")


def _serve_bases() -> dict[int, list[dict]]:
    """The fixed query population, by size option (0 = full schedule).

    Half of the full-schedule queries and half of each subset's come
    from the paper's figure pairs, mostly at their banded tunables; the
    rest from every valid library x config pair with toggled tunables.
    The set is the same for every seed, so every seed computes curves of
    the same total cost; the seed only decides their popularity.
    """
    rng = random.Random("serve-mix/bases")
    sizes = {0: SERVE_POPULATION // 2, 1: SERVE_POPULATION // 4,
             2: SERVE_POPULATION // 4}
    bases: dict[int, list[dict]] = {}
    for option, n in sizes.items():
        seen: set[str] = set()
        out: list[dict] = []
        while len(out) < n:
            if len(out) % 2 == 0:
                library, config = rng.choice(FIGURE_PAIRS)
                tuned = rng.choice((None, None, True, False))
            else:
                library, config = rng.choice(VALID_PAIRS)
                tuned = rng.choice((None, True, False))
            query: dict = {"library": library, "config": config}
            if config in JUMBO_CONFIGS and rng.random() < 0.3:
                query["mtu"] = 9000
            if tuned is not None:
                query["tuned"] = tuned
            if option:
                query["sizes"] = list(SIZE_SUBSETS[option - 1])
            key = json.dumps(query, sort_keys=True)
            if key not in seen:
                seen.add(key)
                out.append(query)
        bases[option] = out
    return bases


def _size_option(rank: int) -> int:
    """Even ranks ask for the full schedule, odd ranks for a subset."""
    return 0 if rank % 2 == 0 else 1 + (rank // 2) % 2


def serve_population(seed: int) -> list[dict]:
    """SERVE_POPULATION distinct valid queries, most popular first.

    Size option and compare_with go by rank, so they take the same share
    of the Zipf mass for every seed."""
    rng = random.Random(f"serve-mix/population/{seed}")
    bases = {option: rng.sample(queries, len(queries))
             for option, queries in _serve_bases().items()}
    out: list[dict] = []
    for rank in range(SERVE_POPULATION):
        query = dict(bases[_size_option(rank)].pop())
        if rank % 5 == 4:
            others = [lib for lib in LIBRARIES if lib != query["library"]
                      and compatible(lib, query["config"])]
            query["compare_with"] = rng.choice(others)
        out.append(query)
    return out


def _invalid_query(rng: random.Random, kind: str) -> dict:
    if kind == "unknown-library":
        return {"library": f"no-such-lib-{rng.randrange(1000)}",
                "config": rng.choice(CONFIGS)}
    if kind == "unknown-config":
        return {"library": rng.choice(LIBRARIES),
                "config": f"no_such_config_{rng.randrange(1000)}"}
    if rng.random() < 0.5:
        return {"library": rng.choice(GM_LIBS),
                "config": rng.choice([c for c in CONFIGS
                                      if c != "pc_myrinet"])}
    return {"library": rng.choice(VIA_LIBS), "config": "pc_myrinet"}


def serve_ops(seed: int):
    """Infinite stream of ``(query, invalid_kind_or_None)``."""
    population = serve_population(seed)
    cum = _zipf_cum(len(population), ZIPF_S)
    rng = random.Random(f"serve-mix/ops/{seed}")
    kinds = 0
    while True:
        bad_at = rng.randrange(INVALID_EVERY)
        for i in range(INVALID_EVERY):
            if i == bad_at:
                kind = INVALID_KINDS[kinds % len(INVALID_KINDS)]
                kinds += 1
                yield _invalid_query(rng, kind), kind
            else:
                yield rng.choices(population, cum_weights=cum)[0], None


# -- scenario-congestion -------------------------------------------------------

RANK_CHOICES = (2, 4, 8, 12, 16)
#: Every REPEAT_EVERY-th op re-runs an earlier spec (a store hit).
REPEAT_EVERY = 4
#: Share of fresh specs that carry a fault window (recovered by retry).
SCENARIO_FAULTY = 0.15
SCENARIO_BASES = 60
PINGPONG_SIZES = (1, 64, 1024, 4096, 16384, 65536)


def _scenario_base(rng: random.Random, index: int) -> dict:
    """A foreground job on a fabric.  Workload kind and rank count are
    striped over the base index, so the bases cover every pairing."""
    kind = ("pingpong", "halo", "alltoall")[index % 3]
    nranks = RANK_CHOICES[(index // 3) % len(RANK_CHOICES)]
    library, config = rng.choice(
        [p for p in VALID_PAIRS if p[0] in TCP_LIBS] if kind != "pingpong"
        else VALID_PAIRS
    )
    base: dict = {"name": f"base{index}", "library": library,
                  "config": config, "nranks": nranks,
                  "seed": rng.randrange(1, 1000)}
    if nranks > 2 and rng.random() < 0.5:
        leaf = rng.choice([n for n in (2, 4, 8) if n < nranks] or [2])
        base["topology"] = {"kind": "two-tier", "leaf_size": leaf,
                            "uplink_capacity": rng.choice((1, 2))}
    else:
        base["topology"] = {"kind": "crossbar"}
    if kind == "pingpong":
        sizes = sorted(rng.sample(PINGPONG_SIZES, 3))
        base["workload"] = {"kind": "pingpong", "sizes": sizes}
    elif kind == "halo":
        base["workload"] = {"kind": "halo", "iterations": rng.choice((2, 3)),
                            "cells": rng.choice((32, 64))}
    else:
        base["workload"] = {"kind": "alltoall", "iterations": 1,
                            "message_bytes": rng.choice((1024, 4096, 16384))}
    return base


def _interference(rng: random.Random, spec: dict) -> dict:
    """Background generators, CPU contention and fault windows.  A spec
    without generators always gets CPU contention, so fresh specs are
    never quiet and never coincide with a quiet twin."""
    spec = dict(spec)
    nranks = spec["nranks"]
    traffic = []
    for _ in range(rng.choice((0, 1, 1, 2))):
        kind = rng.choice(("constant", "onoff", "alltoall"))
        entry: dict = {"kind": kind,
                       "rate": rng.choice((0.1, 0.2, 0.3, 0.5)),
                       "message_bytes": rng.choice((4096, 16384, 65536))}
        if kind == "onoff":
            entry["on_seconds"] = 0.0005
            entry["off_seconds"] = 0.0005
        traffic.append(entry)
    if traffic:
        spec["traffic"] = traffic
    if not traffic or rng.random() < 0.3:
        spec["cpu"] = {"load": rng.choice((0.25, 0.5)),
                       "ranks": list(range(0, nranks, 2))}
    if rng.random() < SCENARIO_FAULTY:
        spec["faults"] = [{"kind": "raise", "times": 1}]
    return spec


def scenario_ops(seed: int):
    """Infinite stream of scenario specs (JSON shape).

    The bases are the same for every seed and fresh specs take them in
    passes, each pass in a seeded order; the seed also picks the
    interference each adds, never repeating a spec.  Every
    REPEAT_EVERY-th op re-runs an earlier spec, so exactly that share of
    ops are store hits."""
    bases_rng = random.Random("scenario/bases")
    bases = [_scenario_base(bases_rng, i) for i in range(SCENARIO_BASES)]
    rng = random.Random(f"scenario/{seed}")
    issued: list[dict] = []
    seen: set[str] = set()
    order: list[dict] = []
    for i in count():
        if i % REPEAT_EVERY == REPEAT_EVERY - 1:
            spec = rng.choice(issued)
        else:
            if not order:
                order = rng.sample(bases, len(bases))
            base = order.pop()
            spec = _interference(rng, base)
            while json.dumps(spec, sort_keys=True) in seen:
                spec = _interference(rng, base)
            seen.add(json.dumps(spec, sort_keys=True))
            issued.append(spec)
        yield spec


#: The quiet two-node spec checked bit-identical against the sweep path.
QUIET_TWO_NODE = {"name": "quiet-two-node", "library": "mpich",
                  "config": "pc_netgear_ga620", "nranks": 2,
                  "workload": {"kind": "pingpong",
                               "sizes": [1, 1024, 65536, 1048576]}}


# -- summaries -----------------------------------------------------------------

def take(stream, n: int) -> list:
    return [item for _, item in zip(range(n), stream)]


def serve_properties(seed: int, n: int = 5000) -> dict:
    """Input properties of the first ``n`` serve-mix ops."""
    ops = take(serve_ops(seed), n)
    keys = [json.dumps(q, sort_keys=True) for q, bad in ops if bad is None]
    invalid = [bad for _, bad in ops if bad is not None]
    return {
        "ops": n,
        "population": SERVE_POPULATION,
        "hot_capacity": HOT_CAPACITY,
        "population_over_hot": SERVE_POPULATION / HOT_CAPACITY,
        "distinct_in_first_ops": len(set(keys)),
        "repeated_share": 1 - len(set(keys)) / len(keys),
        "invalid_share": len(invalid) / n,
        "mismatch_share": invalid.count("mismatch") / n,
        "compare_share": sum(1 for q, b in ops
                             if b is None and "compare_with" in q) / n,
    }


def scenario_properties(seed: int, n: int = 500) -> dict:
    """Input properties of the first ``n`` scenario-congestion ops."""
    specs = take(scenario_ops(seed), n)
    keys = [json.dumps(s, sort_keys=True) for s in specs]
    ranks = sorted(s["nranks"] for s in specs)
    return {
        "ops": n,
        "repeated_share": 1 - len(set(keys)) / n,
        "ranks_min": ranks[0],
        "ranks_median": ranks[n // 2],
        "ranks_max": ranks[-1],
        "faulty_share": sum(1 for s in specs if "faults" in s) / n,
        "congested_share": sum(1 for s in specs
                               if "traffic" in s or "cpu" in s) / n,
        "two_tier_share": sum(1 for s in specs
                              if s["topology"]["kind"] == "two-tier") / n,
    }


def inputs_digest(workload: str, seed: int, n: int = 400) -> str:
    """Digest of the first ``n`` generated inputs of a workload."""
    if workload == "paper-sim":
        return digest(take(paper_sim_ops(seed), n))
    if workload == "serve-mix":
        return digest(take(serve_ops(seed), n))
    if workload == "scenario-congestion":
        return digest(take(scenario_ops(seed), n))
    if workload == "dev-check":
        # The op is fixed: analyze src/, then verify the universe.
        return digest({"paths": ["src"], "verify": "universe"})
    raise KeyError(workload)
