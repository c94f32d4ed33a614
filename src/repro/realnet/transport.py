"""Live TCP transport with the paper's tuning knobs.

``SocketConfig`` exposes exactly the knobs the paper turns on real
systems: SO_SNDBUF/SO_RCVBUF (the socket buffers) and TCP_NODELAY
(Nagle), plus TCP_MAXSEG, which pins loopback to an Ethernet-sized
MSS.  ``connect_pair`` builds a connected (server, client) socket pair
over loopback for in-process tests; the two-process harness in
:mod:`repro.realnet.procs` uses the same configuration path.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass

from repro.realnet.framing import (
    KIND_BYE,
    MessageHeader,
    recv_message,
    send_message,
)


@dataclass(frozen=True)
class SocketConfig:
    """Tuning applied to each end of the connection.

    :param sockbuf: bytes for SO_SNDBUF and SO_RCVBUF, or None to
        accept the kernel default (the kernel may round or clamp —
        ``SocketTransport.effective_bufsizes`` reports what it granted)
    :param nodelay: disable Nagle (TCP_NODELAY); ping-pong benchmarks
        need this or sub-MSS messages wait for delayed ACKs
    :param mss: TCP_MAXSEG in bytes.  Loopback's default MSS (~65 KB)
        exceeds a small socket buffer, so every window would wait on a
        kernel timer instead of an ACK; the default 1448 is Ethernet's,
        the MSS the paper's clusters ran with.  Where the platform has
        no TCP_MAXSEG it is skipped.

    Apply a config before ``listen``/``connect``: the buffers and the
    MSS shape the handshake, and accepted sockets inherit both from the
    listener.
    """

    sockbuf: int | None = None
    nodelay: bool = True
    mss: int = 1448

    def apply(self, sock: socket.socket) -> None:
        if self.mss <= 0:
            raise ValueError("mss must be positive")
        maxseg = getattr(socket, "TCP_MAXSEG", None)
        if maxseg is not None:
            sock.setsockopt(socket.IPPROTO_TCP, maxseg, self.mss)
        if self.sockbuf is not None:
            if self.sockbuf <= 0:
                raise ValueError("sockbuf must be positive")
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, self.sockbuf)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, self.sockbuf)
        if self.nodelay:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class SocketTransport:
    """A framed message transport over one connected TCP socket."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.closed = False

    def send(
        self,
        kind: int,
        tag: int,
        payload: bytes | memoryview = b"",
        deadline: float | None = None,
    ) -> None:
        send_message(self.sock, kind, tag, payload, deadline)

    def recv(self, deadline: float | None = None) -> tuple[MessageHeader, bytes]:
        return recv_message(self.sock, deadline)

    def effective_bufsizes(self) -> tuple[int, int]:
        """(SO_SNDBUF, SO_RCVBUF) as the kernel actually set them."""
        snd = self.sock.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
        rcv = self.sock.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF)
        return snd, rcv

    def close(self, *, send_bye: bool = False) -> None:
        if self.closed:
            return
        try:
            if send_bye:
                self.send(KIND_BYE, 0)
        except OSError:
            pass
        finally:
            self.closed = True
            self.sock.close()

    def __enter__(self) -> "SocketTransport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def connect_pair(
    config: SocketConfig | None = None, host: str = "127.0.0.1"
) -> tuple[SocketTransport, SocketTransport]:
    """A connected (server_side, client_side) transport pair.

    Socket buffers and the MSS must be set *before* listen/connect to
    influence the handshake, exactly as the paper's libraries do.
    """
    config = config or SocketConfig()
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        config.apply(listener)
        listener.bind((host, 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        client = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        config.apply(client)
        client.connect((host, port))
        server, _ = listener.accept()
        config.apply(server)
    finally:
        listener.close()
    return SocketTransport(server), SocketTransport(client)
