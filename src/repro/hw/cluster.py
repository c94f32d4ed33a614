"""Cluster configuration: two hosts, a NIC pair, OS tuning.

A :class:`ClusterConfig` is everything an experiment needs to know about
the machines: which host model, which NIC, what MTU is configured, the
kernel's socket-buffer sysctls, and whether the nodes are back-to-back
or go through a switch.  The paper's tests were back-to-back except for
Giganet (8-port switch).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.hw.catalog import OS_BYPASS_PCI_EFFICIENCY
from repro.hw.host import HostModel
from repro.hw.nic import NicKind, NicModel
from repro.units import kb, us


@dataclass(frozen=True)
class SysctlConfig:
    """The kernel socket-buffer knobs the paper tunes (Sec. 3.4).

    ``default`` models net.core.{r,w}mem_default — what a connection
    gets when the application never calls setsockopt.  ``maximum``
    models net.core.{r,w}mem_max — the clamp on what setsockopt can
    request.  RedHat 7.2 shipped with both small; the paper's tuning
    raises the maximum so libraries *can* ask for big buffers.
    """

    default: int = kb(32)
    maximum: int = kb(32)

    def __post_init__(self) -> None:
        if self.default <= 0 or self.maximum <= 0:
            raise ValueError("socket buffer sizes must be positive")
        if self.default > self.maximum:
            raise ValueError("default socket buffer exceeds the maximum")

    def effective_bufsize(self, requested: int | None) -> int:
        """Socket buffer a connection actually gets.

        ``None`` means the application didn't call setsockopt.
        Requests are clamped to the sysctl maximum, exactly as Linux
        clamps SO_SNDBUF/SO_RCVBUF.
        """
        if requested is None:
            return self.default
        if requested <= 0:
            raise ValueError("requested buffer must be positive")
        return min(requested, self.maximum)


#: RedHat 7.2 out of the box: small defaults, small ceiling — "The
#: default OS tuning levels have not kept pace with what is needed to
#: communicate at higher speeds" (Sec. 4).
DEFAULT_SYSCTL = SysctlConfig()

#: After the paper's /etc/sysctl.conf tuning (net.core.rmem_max etc.).
TUNED_SYSCTL = SysctlConfig(default=kb(32), maximum=kb(512))


@dataclass(frozen=True)
class ClusterConfig:
    """Two identical nodes joined by one NIC pair.

    :param host: node model (both ends identical, as in the paper)
    :param nic: NIC model on both ends
    :param mtu: configured MTU; must not exceed the NIC's maximum
    :param sysctl: kernel socket-buffer configuration
    :param back_to_back: no switch in the path (the paper's default)
    :param switch_latency: one-way store-and-forward latency when a
        switch is present (Giganet's CL5000 8-port switch)
    """

    host: HostModel
    nic: NicModel
    mtu: int | None = None
    sysctl: SysctlConfig = DEFAULT_SYSCTL
    back_to_back: bool = True
    switch_latency: float = us(1.0)

    def __post_init__(self) -> None:
        if self.mtu is not None:
            if self.mtu < 576:
                raise ValueError(f"MTU {self.mtu} below IPv4 minimum-practical")
            if self.mtu > self.nic.mtu_max:
                raise ValueError(
                    f"MTU {self.mtu} exceeds {self.nic.name} max {self.nic.mtu_max}"
                )
        if self.nic.kind is NicKind.ETHERNET and not self.nic.pci_64bit_capable:
            if self.host.pci.width_bits == 64:
                # Physically legal (32-bit card in 64-bit slot) but the
                # card only uses 32 bits; nothing to validate.
                pass

    @property
    def effective_mtu(self) -> int:
        """Configured MTU, defaulting to the NIC's default."""
        return self.mtu if self.mtu is not None else self.nic.mtu_default

    @property
    def pci_bandwidth(self) -> float:
        """DMA bandwidth the NIC can extract from this host's bus (B/s).

        A 32-bit-only card in any slot moves 32 bits per clock.
        OS-bypass NICs (Myrinet, Giganet) sustain higher PCI efficiency
        than descriptor-per-frame Ethernet DMA.
        """
        bus = self.host.pci
        width = min(bus.width_bits, 64 if self.nic.pci_64bit_capable else 32)
        raw = width / 8 * bus.clock_mhz * 1e6
        if self.nic.kind in (NicKind.MYRINET, NicKind.VIA_HARDWARE):
            return raw * OS_BYPASS_PCI_EFFICIENCY
        return raw * bus.efficiency

    @property
    def path_latency_extra(self) -> float:
        """Extra one-way latency from switching hardware, if any."""
        return 0.0 if self.back_to_back else self.switch_latency

    def with_sysctl(self, sysctl: SysctlConfig) -> "ClusterConfig":
        """A copy of this config with different kernel tuning."""
        return replace(self, sysctl=sysctl)

    def with_mtu(self, mtu: int) -> "ClusterConfig":
        """A copy of this config with a different MTU."""
        return replace(self, mtu=mtu)

    def describe(self) -> str:
        path = "back-to-back" if self.back_to_back else "switched"
        return (
            f"{self.nic.name} on {self.host.name}, MTU {self.effective_mtu}, "
            f"{path}, sockbuf default {self.sysctl.default // 1024} KB / "
            f"max {self.sysctl.maximum // 1024} KB"
        )
