"""The TCP/IP stack model: socket buffers, windowing, per-packet costs.

This is the substrate all the TCP-based message-passing libraries run
on, and where the paper's central tuning story lives.  Performance of a
connection is the minimum of four pipeline stages plus a window limit:

1. **Wire** — payload link rate after Ethernet/IP/TCP framing, times
   the NIC's link efficiency.
2. **PCI** — sustained DMA bandwidth the NIC extracts from the host bus.
3. **Sender CPU** — per-segment transmit cost plus the user-to-kernel
   copy, charged against the host's memcpy bandwidth.
4. **Receiver CPU** — per-segment receive/interrupt cost plus the
   kernel-to-user copy.
5. **Window** — once a message exceeds the socket buffer, the sender
   can only keep ``min(sndbuf, rcvbuf)`` bytes in flight, and refilling
   that window costs the NIC/driver's effective ``ack_rtt`` plus any
   progress-engine stall the library adds.  Window-limited throughput
   is ``window / (ack_rtt + progress_stall)``.

Stage 5 is the paper's headline: a 32 KB default buffer on the TrendNet
cards yields 32768 B / 904 us = 290 Mb/s no matter how fast the wire is,
and raising the buffer to 512 KB "doubles the raw throughput".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hw.cluster import ClusterConfig
from repro.net.base import LinkModel
from repro.net.ethernet import EthernetFraming


@dataclass(frozen=True)
class TcpTuning:
    """Per-connection tuning a library (or benchmark) applies.

    :param sockbuf_request: bytes passed to setsockopt(SO_SNDBUF/RCVBUF),
        or None if the library never sets socket buffers (it then gets
        the kernel default).  The kernel clamps requests to the sysctl
        maximum.
    :param progress_stall: extra effective window-refill stall caused by
        the library's progress engine.  Zero for an attentive receiver
        (raw NetPIPE, MP_Lite's SIGIO engine, MPI/Pro's progress
        thread); large for MPICH's single-threaded blocking p4 device,
        which only services the socket inside MPI calls.
    :param latency_adder: fixed per-message latency the library layer
        adds on top of raw TCP (header processing, thread hand-offs).
    """

    sockbuf_request: int | None = None
    progress_stall: float = 0.0
    latency_adder: float = 0.0

    def __post_init__(self) -> None:
        if self.progress_stall < 0 or self.latency_adder < 0:
            raise ValueError("tuning times must be non-negative")
        if self.sockbuf_request is not None and self.sockbuf_request <= 0:
            raise ValueError("sockbuf_request must be positive")


class TcpModel(LinkModel):
    """One TCP connection over the cluster's Ethernet NICs.

    ``config``, ``tuning`` and ``framing`` are read-only, so the
    constants derived from them alone are computed once, at
    construction, and read back per message.
    """

    def __init__(self, config: ClusterConfig, tuning: TcpTuning | None = None):
        super().__init__(config)
        self._tuning = tuning or TcpTuning()
        self._framing = EthernetFraming(config.effective_mtu)
        # Added one by one, in order: ``sum()`` may round differently.
        latency = 0.0
        for part in self.latency_components().values():
            latency += part
        self._latency0 = latency
        self._sockbuf = config.sysctl.effective_bufsize(self._tuning.sockbuf_request)
        self._pipeline_rate = min(
            self.wire_rate, self.pci_rate, self.tx_cpu_rate, self.rx_cpu_rate
        )
        stall = config.nic.ack_rtt + self._tuning.progress_stall
        self._window_rate = self._sockbuf / stall if stall > 0 else float("inf")
        # Bytes that ride the pipeline before window stalls phase in,
        # and the per-byte cost each later byte adds.
        self._grace = min(self._sockbuf, self.WINDOW_GRACE_BYTES)
        self._stall_per_byte = 1.0 / self._window_rate - 1.0 / self._pipeline_rate

    @property
    def tuning(self) -> TcpTuning:
        """The library's per-connection tuning (read-only)."""
        return self._tuning

    @property
    def framing(self) -> EthernetFraming:
        """Framing arithmetic at the config's effective MTU (read-only)."""
        return self._framing

    # -- configuration-derived quantities -------------------------------------
    @property
    def sockbuf(self) -> int:
        """Socket buffer the connection actually got (bytes)."""
        return self._sockbuf

    @property
    def wire_rate(self) -> float:
        """Stage 1: payload rate the wire sustains (bytes/s)."""
        nic = self.config.nic
        return self.framing.payload_rate(nic.link_rate) * nic.link_efficiency

    @property
    def pci_rate(self) -> float:
        """Stage 2: DMA bandwidth (bytes/s)."""
        return self.config.pci_bandwidth

    @property
    def tx_cpu_rate(self) -> float:
        """Stage 3: sender CPU packetisation rate (bytes/s)."""
        host, nic = self.config.host, self.config.nic
        mss = self.framing.mss
        per_seg = nic.tx_per_packet_time + mss / host.memcpy_bandwidth
        return mss / per_seg

    @property
    def rx_cpu_rate(self) -> float:
        """Stage 4: receiver CPU drain rate (bytes/s)."""
        host, nic = self.config.host, self.config.nic
        mss = self.framing.mss
        per_seg = nic.rx_per_packet_time + mss / host.memcpy_bandwidth
        return mss / per_seg

    @property
    def pipeline_rate(self) -> float:
        """Streaming rate ignoring the window limit (bytes/s)."""
        return self._pipeline_rate

    @property
    def window_rate(self) -> float:
        """Stage 5: window-limited rate (bytes/s); inf when unconstrained:
        ``sockbuf / (ack_rtt + progress_stall)``."""
        return self._window_rate

    #: Transfers that fit in the initial ACK-free burst (a couple of
    #: segments) never see a window stall; beyond it, stalls phase in
    #: per byte.  Keeps curves continuous and monotone-to-the-plateau,
    #: matching the "flattens out at ..." shape of the paper's figures.
    WINDOW_GRACE_BYTES = 2048

    # -- LinkModel interface ----------------------------------------------------
    @property
    def latency0(self) -> float:
        """Fixed one-way small-message latency: syscalls, per-packet
        costs, wire, interrupt and wakeup (Sec. 4's latency story);
        the sum of :meth:`latency_components`, in their order."""
        return self._latency0

    def stream_time(self, nbytes: int) -> float:
        """Pipeline time plus phased-in window stalls.

        The first ``WINDOW_GRACE_BYTES`` ride the pipeline; every byte
        beyond pays the *difference* between the window-limited and
        pipeline per-byte costs, so the curve rises continuously toward
        the ``window_rate`` plateau (the paper's "flattens out" shape)
        with no discontinuity at the buffer size.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        t = nbytes / self._pipeline_rate
        if self._window_rate < self._pipeline_rate and nbytes > self._grace:
            t += (nbytes - self._grace) * self._stall_per_byte
        return t

    def rate(self, nbytes: int) -> float:
        """Effective streaming rate for an ``nbytes`` message."""
        if nbytes <= 0:
            return self._pipeline_rate
        return nbytes / self.stream_time(nbytes)

    def cpu_times(self, nbytes: int) -> tuple[float, float]:
        """Host CPU consumed: per-segment stack costs plus the copies.

        This is why the paper's era needed OS-bypass interconnects: at
        standard MTU a GigE *receive* path eats essentially an entire
        2002 CPU (the rx stage is the throughput bottleneck), while the
        sender spends roughly half its time in the stack.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        host = self.config.host
        segs = self.framing.segments(nbytes)
        copy = nbytes / host.memcpy_bandwidth
        tx = host.syscall_time + segs * self.config.nic.tx_per_packet_time + copy
        rx = (
            host.syscall_time
            + host.sched_wakeup_time
            + segs * self.config.nic.rx_per_packet_time
            + copy
        )
        return tx, rx

    def latency_components(self) -> dict[str, float]:
        """Where the one-way small-message latency goes, by component.

        The paper's first step is "to identify where the performance is
        being lost"; for the ~120 us GigE latencies of Sec. 4, most of
        it is the driver+kernel path (``wire+driver``), not the wire
        bits themselves.
        """
        host, nic, cfg = self.config.host, self.config.nic, self.config
        components = {
            "syscalls": 2 * host.syscall_time,
            "tx per-packet": nic.tx_per_packet_time,
            "wire+driver": nic.wire_latency,
            "serialisation": self.framing.frame_time(1, nic.link_rate),
            "switch": cfg.path_latency_extra,
            "interrupt": host.interrupt_time,
            "rx per-packet": nic.rx_per_packet_time,
            "wakeup": host.sched_wakeup_time,
            "library": self.tuning.latency_adder,
        }
        return components

    # -- diagnostics -----------------------------------------------------------
    def bottleneck(self, nbytes: int) -> str:
        """Name of the limiting stage for an ``nbytes`` transfer."""
        stages = {
            "wire": self.wire_rate,
            "pci": self.pci_rate,
            "tx-cpu": self.tx_cpu_rate,
            "rx-cpu": self.rx_cpu_rate,
        }
        if nbytes > self._grace:
            stages["window"] = self.window_rate
        return min(stages, key=stages.get)
