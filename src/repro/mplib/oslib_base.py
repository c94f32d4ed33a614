"""Shared machinery for OS-bypass (GM / VIA) library protocols.

MPI layers over GM and VIA all use the same two-protocol shape:

* **eager** (small messages): the payload is sent immediately through
  pre-registered *bounce buffers*; each side pays a memcpy between the
  user buffer and the bounce buffer.  The copies pipeline with the
  transfer, so only a chunk of pipeline-fill is exposed per message.
* **rendezvous / RDMA** (large messages): a request/clear handshake
  exchanges buffer registrations, after which the NIC moves data
  directly between user buffers — zero copy, but one extra round trip,
  which produces the characteristic dip right at the threshold.

Libraries that cannot use the zero-copy path (MVICH without
``VIADEV_RPUT_SUPPORT``) fall back to staging every message through
bounce buffers with a *serial* receive copy — the paper calls enabling
RPUT "vital to get good performance".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.hw.cluster import ClusterConfig
from repro.mplib.base import LibEndpoint, MPLibrary
from repro.net.base import LinkModel
from repro.net.channel import Endpoint, SimChannel
from repro.sim import Engine
from repro.units import kb


@dataclass(frozen=True)
class OsBypassSpec:
    """Protocol description of one GM/VIA library configuration.

    :param library: display name
    :param eager_threshold: switch to rendezvous/RDMA at this size
    :param zero_copy_large: large path moves data NIC-direct (RPUT /
        registered rendezvous); False = staging copies on every message
    :param eager_copy_chunk: exposed pipeline-fill bytes per bounce copy
    :param latency_adder: fixed per-message library latency
    :param header_bytes: eager header size
    """

    library: str
    eager_threshold: int = kb(16)
    zero_copy_large: bool = True
    eager_copy_chunk: int = kb(1)
    latency_adder: float = 0.0
    header_bytes: int = 16

    def __post_init__(self) -> None:
        if self.eager_threshold < 0:
            raise ValueError("eager_threshold must be non-negative")
        if self.latency_adder < 0:
            raise ValueError("latency_adder must be non-negative")


class _AdderLink(LinkModel):
    """Wraps a LinkModel, adding the library's fixed per-message latency."""

    def __init__(self, inner: LinkModel, adder: float):
        super().__init__(inner.config)
        self._inner = inner
        self._adder = adder
        self._latency0 = inner.latency0 + adder

    @property
    def inner(self) -> LinkModel:
        """The wrapped transport (read-only)."""
        return self._inner

    @property
    def adder(self) -> float:
        """The library's fixed per-message latency (read-only)."""
        return self._adder

    @property
    def latency0(self) -> float:
        return self._latency0

    def rate(self, nbytes: int) -> float:
        return self.inner.rate(nbytes)


class OsBypassLibrary(MPLibrary):
    """An MPLibrary over a GM or VIA LinkModel, driven by a spec."""

    def __init__(self, spec: OsBypassSpec):
        self.spec = spec
        self.name = spec.library.lower().replace("/", "-").replace(" ", "-")
        self.display_name = spec.library

    def base_link(self, config: ClusterConfig) -> LinkModel:
        """The raw transport (override per library)."""
        raise NotImplementedError

    def link_model(self, config: ClusterConfig) -> LinkModel:
        return _AdderLink(self.base_link(config), self.spec.latency_adder)

    #: GM and VIA protocols are NIC-driven: transfers progress without
    #: host library calls.
    progress_independent = True

    def build(
        self, engine: Engine, config: ClusterConfig
    ) -> tuple["OsBypassEndpoint", "OsBypassEndpoint"]:
        channel = SimChannel(engine, self.link_model(config))
        return (
            OsBypassEndpoint(self.spec, config, channel.endpoints[0]),
            OsBypassEndpoint(self.spec, config, channel.endpoints[1]),
        )

    def build_endpoint(self, config: ClusterConfig, pair_endpoint) -> "OsBypassEndpoint":
        return OsBypassEndpoint(self.spec, config, pair_endpoint)


class OsBypassEndpoint(LibEndpoint):
    """Eager / rendezvous protocol over an OS-bypass channel."""

    def __init__(self, spec: OsBypassSpec, config: ClusterConfig, endpoint: Endpoint):
        self.spec = spec
        self.config = config
        self.ep = endpoint
        self.engine = endpoint.channel.engine
        #: bound once: the engine's obs recorder (NULL_RECORDER when off)
        self.obs = self.engine.obs
        track = getattr(endpoint, "node", None)
        if track is None:  # fabric PairEndpoint exposes .me instead
            track = getattr(endpoint, "me", 0)
        self._obs_track = track

    def _bounce_copy_time(self, nbytes: int) -> float:
        """Exposed cost of one pipelined bounce-buffer copy."""
        if nbytes == 0:
            return 0.0
        return self.config.host.copy_time(min(nbytes, self.spec.eager_copy_chunk))

    def _is_large(self, nbytes: int) -> bool:
        return nbytes >= self.spec.eager_threshold

    def send(self, nbytes: int) -> Generator:
        spec = self.spec
        obs = self.obs
        track = self._obs_track
        if self._is_large(nbytes) and spec.zero_copy_large:
            # Rendezvous: exchange registrations, then NIC-direct RDMA.
            if obs.enabled:
                obs.count("mplib.rendezvous")
                t0 = self.engine.now
            yield from self.ep.send(spec.header_bytes, tag="rts")
            yield from self.ep.recv(tag="cts")
            if obs.enabled:
                obs.record(
                    "mplib.rendezvous", cat="handshake", t0=t0,
                    t1=self.engine.now, track=track, size=nbytes,
                    path="rdma",
                )
            yield from self.ep.send(nbytes, tag="data", meta={"path": "rdma"})
        else:
            if obs.enabled:
                obs.count("mplib.eager")
                t0 = self.engine.now
            yield self.engine.timeout(self._bounce_copy_time(nbytes))
            if obs.enabled and self.engine.now > t0:
                obs.record(
                    "mplib.tx-copy", cat="copy", t0=t0,
                    t1=self.engine.now, track=track, size=nbytes,
                )
            yield from self.ep.send(nbytes + spec.header_bytes, tag="data")
        if obs.enabled:
            obs.count("mplib.send")

    def recv(self, nbytes: int) -> Generator:
        spec = self.spec
        obs = self.obs
        track = self._obs_track
        large = self._is_large(nbytes)
        if large and spec.zero_copy_large:
            if obs.enabled:
                t0 = self.engine.now
            yield from self.ep.recv(tag="rts")
            yield from self.ep.send(spec.header_bytes, tag="cts")
            if obs.enabled:
                obs.record(
                    "mplib.rendezvous", cat="handshake", t0=t0,
                    t1=self.engine.now, track=track, size=nbytes,
                    role="passive", path="rdma",
                )
            msg = yield from self.ep.recv(tag="data")
        else:
            msg = yield from self.ep.recv(tag="data")
            if obs.enabled:
                t0 = self.engine.now
            if not spec.zero_copy_large:
                # No RPUT: every message is staged through the
                # descriptor path with a serial receive copy.
                yield self.engine.timeout(self.config.host.copy_time(nbytes))
            else:
                yield self.engine.timeout(self._bounce_copy_time(nbytes))
            if obs.enabled and self.engine.now > t0:
                obs.record(
                    "mplib.rx-copy", cat="copy", t0=t0,
                    t1=self.engine.now, track=track, size=nbytes,
                    serial=not spec.zero_copy_large,
                )
        return msg
