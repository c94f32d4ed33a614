"""LinkModel: the abstract cost model every transport implements.

A LinkModel answers three questions about one point-to-point connection:

* ``latency0``     — fixed one-way time for a tiny message (seconds);
* ``rate(n)``      — sustained streaming rate for an ``n``-byte message
  (bytes/s), which may depend on ``n`` through windowing;
* ``transfer_time(n)`` — total one-way time from the sender's send call
  to the receiver holding the data.

Message-passing protocol models compose these with their own copies,
handshakes and daemon hops.  The discrete-event channel
(:mod:`repro.net.channel`) executes transfers using the same numbers,
so analytic checks and simulated runs agree by construction.
"""

from __future__ import annotations

import abc

from repro.hw.cluster import ClusterConfig


class LinkModel(abc.ABC):
    """Analytic cost model of one connection between the two nodes.

    A model's inputs are read-only after construction, so anything
    derived from them alone can be computed once, in the constructor.
    """

    def __init__(self, config: ClusterConfig):
        self._config = config

    @property
    def config(self) -> ClusterConfig:
        """The cluster configuration the link runs on (read-only)."""
        return self._config

    # -- required interface --------------------------------------------------
    @property
    @abc.abstractmethod
    def latency0(self) -> float:
        """Fixed one-way latency for a near-zero-size message (seconds)."""

    @abc.abstractmethod
    def rate(self, nbytes: int) -> float:
        """Sustained payload streaming rate for ``nbytes`` (bytes/s)."""

    # -- derived quantities ---------------------------------------------------
    def stream_time(self, nbytes: int) -> float:
        """Time beyond latency0 to move the payload (seconds)."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if nbytes == 0:
            return 0.0
        return nbytes / self.rate(nbytes)

    def transfer_time(self, nbytes: int) -> float:
        """One-way time from send() call to data fully received."""
        return self.latency0 + self.stream_time(nbytes)

    def occupancy(self, nbytes: int) -> float:
        """Sender-side serialisation: how long the connection is busy
        injecting this message (back-to-back sends queue behind it)."""
        return self.stream_time(nbytes)

    def throughput(self, nbytes: int) -> float:
        """NetPIPE-style throughput for one ``nbytes`` transfer (B/s)."""
        if nbytes <= 0:
            raise ValueError("throughput needs a positive message size")
        return nbytes / self.transfer_time(nbytes)

    def cpu_times(self, nbytes: int) -> tuple[float, float]:
        """(sender, receiver) host-CPU seconds consumed by a transfer.

        NetPIPE measures idle nodes; this exposes what a *loaded* node
        would lose — the paper's explicit caveat.  Transports override
        with their stack's per-packet and copy costs; OS-bypass
        transports with their poll/doorbell behaviour.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not model host CPU consumption"
        )

    def cpu_availability(self, nbytes: int) -> tuple[float, float]:
        """(sender, receiver) fraction of the transfer wall time the
        host CPU is free for application work."""
        wall = self.transfer_time(nbytes)
        tx, rx = self.cpu_times(nbytes)
        return (
            max(0.0, 1.0 - tx / wall),
            max(0.0, 1.0 - rx / wall),
        )

    # -- introspection ---------------------------------------------------------
    def describe(self) -> str:
        from repro.units import to_mbps, to_us

        big = 4 * 1024 * 1024
        return (
            f"{type(self).__name__} on {self.config.nic.name}: "
            f"latency {to_us(self.latency0):.1f} us, "
            f"asymptotic {to_mbps(self.rate(big)):.0f} Mb/s"
        )
