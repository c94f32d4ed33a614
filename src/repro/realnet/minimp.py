"""MiniMP: a real, working miniature message-passing library.

The smallest library that exhibits the protocol structure the paper
studies on live sockets:

* **eager** sends below the threshold: header+payload go straight out;
  the receiver buffers *unexpected* messages (arriving before the
  matching recv is posted) and copies them out on match — the exact
  staging copy that costs MPICH 25-30 % in the paper;
* **rendezvous** at/above the threshold: an RTS/CTS handshake ensures
  the receiver is ready, then the payload lands directly in the posted
  buffer — no staging copy, one extra round trip (the dip).

Blocking semantics only (like TCGMSG), one peer per endpoint (like a
NetPIPE run).  This is deliberately MP_Lite-shaped: a research vehicle,
not an MPI implementation.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

from repro.realnet.framing import (
    FramingError,
    KIND_BYE,
    KIND_CTS,
    KIND_DATA,
    KIND_RTS,
)
from repro.realnet.transport import SocketTransport
from repro.units import kb

#: Seconds one ``send`` or ``recv`` may take, from call to return,
#: before it raises ``framing.DeadlineExceeded``.  Over loopback the
#: longest operation in the live sweeps, world collectives and stress
#: runs of the test suite takes about 15 ms (2-vCPU Xeon), so this
#: leaves room for loaded hosts and real networks.
OP_TIMEOUT = 30.0


class PeerClosed(Exception):
    """The peer sent BYE or closed the connection."""


@dataclass(frozen=True)
class MiniMPConfig:
    """Protocol parameters (the paper's two favourite knobs).

    :param eager_threshold: rendezvous at/above this payload size.
        ``None`` disables rendezvous entirely (always eager).
    """

    eager_threshold: int | None = kb(64)

    def __post_init__(self) -> None:
        if self.eager_threshold is not None and self.eager_threshold < 1:
            raise ValueError("eager_threshold must be positive or None")


class MiniMP:
    """One endpoint of a MiniMP connection."""

    def __init__(self, transport: SocketTransport, config: MiniMPConfig | None = None):
        self.transport = transport
        self.config = config or MiniMPConfig()
        self._unexpected: deque[tuple[int, bytes]] = deque()
        self.staging_copies = 0  # observability: unexpected-queue copies

    # -- sending ---------------------------------------------------------------
    def send(self, payload: bytes | memoryview, tag: int = 0) -> None:
        """Blocking send (returns when the kernel accepted all bytes).

        :raises repro.realnet.framing.DeadlineExceeded: past :data:`OP_TIMEOUT`
        """
        deadline = time.monotonic() + OP_TIMEOUT
        threshold = self.config.eager_threshold
        if threshold is not None and len(payload) >= threshold:
            self.transport.send(KIND_RTS, tag, deadline=deadline)
            self._await_cts(tag, deadline)
        self.transport.send(KIND_DATA, tag, payload, deadline=deadline)

    def _await_cts(self, tag: int, deadline: float) -> None:
        while True:
            header, payload = self._recv_or_raise(deadline)
            if header.kind == KIND_CTS and header.tag == tag:
                return
            if header.kind == KIND_DATA:
                # The peer's own eager traffic may interleave with our
                # handshake; queue it for a later recv.
                self._unexpected.append((header.tag, payload))
                self.staging_copies += 1
            elif header.kind == KIND_RTS:
                raise FramingError(
                    "simultaneous rendezvous from both sides is not "
                    "supported by MiniMP's blocking protocol"
                )
            else:
                raise FramingError(f"unexpected {header.kind} while awaiting CTS")

    # -- receiving --------------------------------------------------------------
    def recv(self, nbytes: int, tag: int = 0) -> bytes:
        """Blocking receive of a message with ``tag``.

        ``nbytes`` is the expected size: it decides whether this side
        expects a rendezvous handshake (mirroring how MPI receives know
        their buffer size).

        :raises repro.realnet.framing.DeadlineExceeded: past :data:`OP_TIMEOUT`
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        for i, (qtag, qpayload) in enumerate(self._unexpected):
            if qtag == tag:
                del self._unexpected[i]
                return qpayload
        deadline = time.monotonic() + OP_TIMEOUT
        while True:
            header, payload = self._recv_or_raise(deadline)
            if header.kind == KIND_RTS:
                self.transport.send(KIND_CTS, header.tag, deadline=deadline)
                continue
            if header.kind == KIND_DATA:
                if header.tag == tag:
                    return payload
                self._unexpected.append((header.tag, payload))
                self.staging_copies += 1
                continue
            raise FramingError(f"unexpected message kind {header.kind} in recv")

    def _recv_or_raise(self, deadline: float):
        try:
            header, payload = self.transport.recv(deadline)
        except ConnectionError as exc:
            raise PeerClosed(str(exc)) from exc
        if header.kind == KIND_BYE:
            raise PeerClosed("peer sent BYE")
        return header, payload

    # -- lifecycle ---------------------------------------------------------------
    def close(self) -> None:
        self.transport.close(send_bye=True)
