"""VIA (Virtual Interface Architecture) transport models (Sec. 6).

Two very different implementations share the VIA API:

* **Hardware VIA** — Giganet cLAN cards.  Doorbells are PCI writes the
  NIC decodes; data moves by NIC DMA with no kernel involvement.  Like
  GM, the ceiling is the PCI bus (~800 Mb/s on the PCs) and the latency
  is a few microseconds of descriptor handling plus the wire (10 us at
  the MVICH/MP_Lite level).

* **Software VIA (M-VIA)** — a Linux kernel module that emulates VIA
  doorbells with traps and runs over ordinary Ethernet NICs (the paper
  uses the sk98lin SysKonnect driver).  Every fragment still crosses
  the kernel, so per-packet costs resemble the TCP stack's — which is
  the paper's finding: "MVICH/M-VIA and MP_Lite/M-VIA provide about the
  same performance as raw TCP" (425 Mb/s, 42 us on the PCs).

The model exposes two data paths that VIA-level libraries choose
between: the *descriptor* (send/recv queue) path, and *RDMA write*,
which requires the peer's buffer address (a library-level handshake)
but bypasses receive descriptor processing.  MVICH switches to RDMA at
16 KB, producing the small dip figure 5 shows at that size.
"""

from __future__ import annotations

import enum

from repro.hw.cluster import ClusterConfig
from repro.hw.nic import NicKind
from repro.net.base import LinkModel
from repro.units import kb, us


class ViaFlavor(enum.Enum):
    HARDWARE = "hardware"  # Giganet cLAN
    SOFTWARE = "m-via"  # M-VIA kernel module over Ethernet


#: Hardware doorbell: one uncached PCI write + NIC decode.
HW_DOORBELL_COST = us(0.5)
#: Completion-queue poll on hardware VIA.
HW_COMPLETION_COST = us(0.5)
#: VIA fragment header for software VIA over Ethernet.
SW_FRAME_HEADER = 26
#: Software doorbell: kernel trap into the M-VIA module.
SW_DOORBELL_COST = us(7.0)
#: Software completion processing (kernel hand-off to user).
SW_COMPLETION_COST = us(8.0)


class ViaModel(LinkModel):
    """One VIA connection, hardware or software flavour."""

    def __init__(self, config: ClusterConfig, flavor: ViaFlavor | None = None):
        super().__init__(config)
        if flavor is None:
            flavor = (
                ViaFlavor.HARDWARE
                if config.nic.kind is NicKind.VIA_HARDWARE
                else ViaFlavor.SOFTWARE
            )
        if flavor is ViaFlavor.HARDWARE and config.nic.kind is not NicKind.VIA_HARDWARE:
            raise ValueError("hardware VIA needs VIA hardware (Giganet cLAN)")
        if flavor is ViaFlavor.SOFTWARE and config.nic.kind is not NicKind.ETHERNET:
            raise ValueError("M-VIA runs over an Ethernet NIC")
        self._flavor = flavor
        # Constants of the (read-only) config and flavour, computed once.
        nic, host = config.nic, config.host
        if flavor is ViaFlavor.HARDWARE:
            self._latency0 = (
                HW_DOORBELL_COST
                + nic.wire_latency
                + config.path_latency_extra
                + HW_COMPLETION_COST
                + us(2.0)  # user-level VIPL library processing
            )
            frag = kb(64)  # cLAN segments in hardware; descriptor-sized
            per_frag = HW_DOORBELL_COST + HW_COMPLETION_COST
            wire = nic.link_rate * nic.link_efficiency
            host_rate = frag / (frag / wire + per_frag)
            self._descriptor_rate = min(host_rate, config.pci_bandwidth)
            self._rdma_rate = min(wire, config.pci_bandwidth)
        else:
            self._latency0 = (
                SW_DOORBELL_COST
                + nic.tx_per_packet_time
                + nic.wire_latency
                + config.path_latency_extra
                + host.interrupt_time
                + SW_COMPLETION_COST
                + host.sched_wakeup_time
            )
            frag = config.effective_mtu - SW_FRAME_HEADER
            # The kernel processes each Ethernet frame (no TCP, but
            # still a trap + interrupt-driven receive + copy).
            per_frag = nic.rx_per_packet_time + frag / host.memcpy_bandwidth
            host_rate = frag / per_frag
            wire = nic.link_rate * frag / (frag + SW_FRAME_HEADER + 38)
            wire *= nic.link_efficiency
            self._descriptor_rate = min(host_rate, wire, config.pci_bandwidth)
            # Software RDMA emulation still receives each frame in the
            # kernel but lands data directly in the target buffer (one
            # copy saved vs the descriptor path would be, but our
            # descriptor path already charges only one copy — the paper
            # indeed finds no speedup over raw TCP).
            self._rdma_rate = self._descriptor_rate
        self._fragment = frag

    @property
    def flavor(self) -> ViaFlavor:
        """Hardware or software VIA (read-only)."""
        return self._flavor

    @property
    def latency0(self) -> float:
        return self._latency0

    @property
    def descriptor_rate(self) -> float:
        """Send/receive-queue path: per-fragment processing included."""
        return self._descriptor_rate

    @property
    def rdma_rate(self) -> float:
        """RDMA-write path: receiver descriptor processing bypassed."""
        return self._rdma_rate

    def rate(self, nbytes: int) -> float:
        return self._descriptor_rate

    def cpu_times(self, nbytes: int) -> tuple[float, float]:
        """Hardware VIA barely touches the host; software VIA (M-VIA)
        pays a kernel trap per fragment plus the delivery copy —
        exactly why the paper finds M-VIA no faster than raw TCP."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        host = self.config.host
        if self.flavor is ViaFlavor.HARDWARE:
            tx = HW_DOORBELL_COST
            rx = HW_COMPLETION_COST
            return tx, rx
        frag = self._fragment
        nfrags = max(1, -(-nbytes // frag))
        copy = nbytes / host.memcpy_bandwidth
        tx = SW_DOORBELL_COST + nfrags * self.config.nic.tx_per_packet_time + copy
        rx = (
            SW_COMPLETION_COST
            + host.sched_wakeup_time
            + nfrags * self.config.nic.rx_per_packet_time
            + copy
        )
        return tx, rx
