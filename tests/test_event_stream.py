"""The engine's event stream is pinned, not just the curves it yields.

A faster engine must produce the *identical* event stream: the same
events, popped in the same heap order, carrying the same sequence
numbers.  The golden curve digests would catch a moved float but not,
say, an extra zero-delay kick that happens to leave every curve alone;
these tests catch both:

* one pass of the 30 figure sweeps processes exactly 44,444 events;
* per transport family (TCP, daemon-routed TCP, GM, hardware VIA and
  M-VIA), a SHA-256 over every popped ``(time, seq)`` pair of one full
  NetPIPE sweep matches its pinned digest;
* every link model's constants and ``rate(n)`` over the whole
  library x config universe match, bit for bit, a digest computed
  from the per-message formulas the models used before they
  precomputed them, and the inputs they derive from cannot be
  reassigned.
"""

import hashlib

import pytest

import repro.sim.engine as engine_mod
from repro.core.pingpong import measure_sweep
from repro.core.sizes import netpipe_sizes
from repro.exec import execute_sweeps
from repro.experiments import ALL_FIGURES, configs
from repro.mplib.registry import REGISTRY, VARIANTS
from repro.obs import Recorder
from repro.sim import Engine

#: Events one pass of the 30 figure sweeps processes.
FIGURE_PASS_EVENTS = 44_444

#: family -> (library, config factory, events, SHA-256 of the pop order)
POP_ORDER = {
    "tcp": (
        "raw-tcp", "pc_netgear_ga620", 1122,
        "e146e1ef1e8dfb5a36b1d633664564f3f535c07d362736cf4db75f73438c3cfd",
    ),
    "daemon-tcp": (
        "pvm-default", "pc_netgear_ga620", 1782,
        "36ac93353f422629d5e2549455dc416ad32230c4713c557f978b6070583fafb5",
    ),
    "gm": (
        "mpich-gm", "pc_myrinet", 1946,
        "2a7f8533127a62cfa3ed0709fd3da11f4f03d0742f7ec6c4d102ea526657bdf4",
    ),
    "via": (
        "mvich", "pc_giganet", 1826,
        "fb127186599b67c63025b27beaaf0f04fe683f853ad0bc650db2df030e19eb26",
    ),
    "m-via": (
        "mvich", "pc_syskonnect", 1826,
        "9a9a1dfd52aaac79ee19e43bbd6cca6c2aa8aa8db0c8cc92ca8efd4a70667dc1",
    ),
}

#: Every shipped config factory, at its default arguments.
CONFIG_FACTORIES = (
    "pc_netgear_ga620", "pc_trendnet", "ds20_syskonnect_jumbo",
    "pc_syskonnect", "pc_myrinet", "pc_giganet", "ds20_netgear_ga622",
)

LIBRARIES = {**REGISTRY, **VARIANTS}

#: SHA-256 over every universe link's (and wrapped transport's)
#: constants and rates, as :func:`_link_lines` renders them; computed
#: with the per-message formulas, before links precomputed anything.
LINK_DIGEST = "401ae8f0daa803665244bc3ccae0cd8956cacfbb233b932da091592d507d5e26"
#: Links (outer models plus the transports they wrap) the digest covers.
LINK_MODELS = 211
#: Message sizes whose ``rate`` the digest covers: zero, sub-frame,
#: around the window grace and MTUs, and window-bound.
RATE_SIZES = (0, 1, 27, 1024, 1500, 4096, 8192, 65536, 131072, 1 << 20, 8 << 20)
#: Config-derived constants, where a model has them.
CONSTANTS = ("latency0", "pipeline_rate", "window_rate", "sockbuf",
             "descriptor_rate", "rdma_rate")


def test_one_figure_pass_processes_the_pinned_event_count():
    requests = [r for fig in ALL_FIGURES for r in fig.sweep_requests()]
    assert len(requests) == 30
    _, report = execute_sweeps(requests, max_workers=1, tier="sim", cache=None)
    assert report.events_processed == FIGURE_PASS_EVENTS


@pytest.mark.parametrize("family", sorted(POP_ORDER))
def test_pop_order_matches_the_pinned_digest(family, monkeypatch):
    library, config, events, digest = POP_ORDER[family]
    pop = engine_mod.heappop
    h = hashlib.sha256()
    popped = 0

    def recording_pop(heap):
        nonlocal popped
        when, seq, event = pop(heap)
        h.update(f"{when!r},{seq};".encode())
        popped += 1
        return when, seq, event

    monkeypatch.setattr(engine_mod, "heappop", recording_pop)
    engine = Engine()
    a, b = LIBRARIES[library]().build(engine, getattr(configs, config)())
    measure_sweep(engine, a, b, netpipe_sizes())
    assert popped == engine.events_processed == events
    assert h.hexdigest() == digest, (
        f"{family}: the engine popped a different (time, seq) stream"
    )


def test_traced_sweep_counts_every_scheduled_event():
    """``sim.scheduled`` is settled from the sequence counter when a
    run returns; it must still equal the events actually scheduled."""
    rec = Recorder()
    engine = Engine(obs=rec)
    a, b = LIBRARIES["raw-tcp"]().build(engine, configs.pc_netgear_ga620())
    measure_sweep(engine, a, b, netpipe_sizes())
    assert rec.counters["sim.scheduled"] == engine._seq > 0
    assert rec.counters["sim.events"] == engine.events_processed


def _bits(value):
    """A float's exact bit pattern (ints print as themselves)."""
    return str(value) if isinstance(value, int) else float(value).hex()


def _universe_links():
    for lib_name, factory in sorted(LIBRARIES.items()):
        for cfg_name in CONFIG_FACTORIES:
            try:
                link = factory().link_model(getattr(configs, cfg_name)())
            except ValueError:
                continue  # transport cannot run on this NIC
            yield f"{lib_name}@{cfg_name}", link


def _link_lines():
    for pair, link in _universe_links():
        models = [link]
        inner = getattr(link, "inner", None)
        if inner is not None:
            models.append(inner)
        for model in models:
            line = [pair, type(model).__name__]
            line += [f"{name}={_bits(getattr(model, name))}"
                     for name in CONSTANTS if hasattr(model, name)]
            line += [f"rate({n})={_bits(model.rate(n))}" for n in RATE_SIZES]
            yield ";".join(line) + "\n"


def test_link_constants_and_rates_match_the_pinned_digest():
    h = hashlib.sha256()
    lines = 0
    for line in _link_lines():
        h.update(line.encode())
        lines += 1
    assert lines == LINK_MODELS
    assert h.hexdigest() == LINK_DIGEST, (
        "a link model's latency, rates or rate(n) changed in some bit"
    )


@pytest.mark.parametrize("attr", ["config", "tuning", "receive_mode",
                                  "flavor", "inner", "adder"])
def test_link_inputs_are_read_only(attr):
    """Precomputed constants cannot go stale: what they derive from
    cannot be reassigned."""
    holders = [link for _, link in _universe_links() if hasattr(link, attr)]
    holders += [link.inner for _, link in _universe_links()
                if hasattr(getattr(link, "inner", None), attr)]
    assert holders, f"no link model exposes {attr!r}"
    for link in holders:
        with pytest.raises(AttributeError):
            setattr(link, attr, getattr(link, attr))
