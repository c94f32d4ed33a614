"""Wire framing for the real-socket transport.

A stream socket delivers bytes, not messages; every message-passing
library in the paper therefore defines a header.  Ours is 16 bytes:

====== ===== =========================================
offset bytes field
====== ===== =========================================
0      4     magic ``b"MPRr"`` (protocol sanity check)
4      4     message kind (uint32: DATA/RTS/CTS/BYE)
8      4     tag (uint32, sender-chosen)
12     4     payload length (uint32)
====== ===== =========================================

followed by the payload.  All integers are network byte order.
"""

from __future__ import annotations

import socket
import struct
import time
from dataclasses import dataclass

MAGIC = b"MPRr"
HEADER_STRUCT = struct.Struct("!4sIII")
HEADER_SIZE = HEADER_STRUCT.size

# Message kinds.
KIND_DATA = 1
KIND_RTS = 2  # rendezvous request-to-send
KIND_CTS = 3  # rendezvous clear-to-send
KIND_BYE = 4  # orderly shutdown

VALID_KINDS = {KIND_DATA, KIND_RTS, KIND_CTS, KIND_BYE}


class FramingError(Exception):
    """Corrupt or unexpected bytes on the wire."""


class DeadlineExceeded(TimeoutError):
    """A framed send or receive did not finish by its deadline.

    The stream may have stopped mid-message, so the connection is not
    usable afterwards.
    """


def _arm(sock: socket.socket, deadline: float | None) -> None:
    """Bound the socket's next blocking call by ``deadline``
    (a ``time.monotonic()`` instant; None leaves the socket as it is)."""
    if deadline is None:
        return
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise DeadlineExceeded("operation deadline passed")
    sock.settimeout(remaining)


@dataclass(frozen=True)
class MessageHeader:
    kind: int
    tag: int
    length: int

    def pack(self) -> bytes:
        if self.kind not in VALID_KINDS:
            raise ValueError(f"invalid message kind {self.kind}")
        if not 0 <= self.length <= 0xFFFFFFFF:
            raise ValueError(f"length out of range: {self.length}")
        if not 0 <= self.tag <= 0xFFFFFFFF:
            raise ValueError(f"tag out of range: {self.tag}")
        return HEADER_STRUCT.pack(MAGIC, self.kind, self.tag, self.length)

    @classmethod
    def unpack(cls, raw: bytes) -> "MessageHeader":
        magic, kind, tag, length = HEADER_STRUCT.unpack(raw)
        if magic != MAGIC:
            raise FramingError(f"bad magic {magic!r}")
        if kind not in VALID_KINDS:
            raise FramingError(f"bad message kind {kind}")
        return cls(kind=kind, tag=tag, length=length)


def recv_exact(
    sock: socket.socket, nbytes: int, deadline: float | None = None
) -> bytes:
    """Read exactly ``nbytes`` or raise ConnectionError on EOF.

    With a ``deadline`` (a ``time.monotonic()`` instant), raises
    :class:`DeadlineExceeded` once it passes.
    """
    chunks: list[bytes] = []
    remaining = nbytes
    while remaining:
        _arm(sock, deadline)
        try:
            chunk = sock.recv(min(remaining, 1 << 20))
        except socket.timeout as exc:
            raise DeadlineExceeded(
                f"{remaining} of {nbytes} bytes still outstanding at the deadline"
            ) from exc
        if not chunk:
            raise ConnectionError(
                f"peer closed with {remaining} of {nbytes} bytes outstanding"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_message(
    sock: socket.socket,
    kind: int,
    tag: int,
    payload: bytes | memoryview = b"",
    deadline: float | None = None,
) -> None:
    """One header+payload write (sendall handles partial writes).

    With a ``deadline`` (a ``time.monotonic()`` instant), raises
    :class:`DeadlineExceeded` once it passes.
    """
    header = MessageHeader(kind=kind, tag=tag, length=len(payload)).pack()
    # One sendall for the header keeps small messages to a single
    # segment; large payloads follow separately to avoid a copy.
    if len(payload) and len(payload) <= 4096:
        parts = (header + bytes(payload),)
    elif len(payload):
        parts = (header, payload)
    else:
        parts = (header,)
    for part in parts:
        _arm(sock, deadline)
        try:
            sock.sendall(part)
        except socket.timeout as exc:
            raise DeadlineExceeded("send unfinished at the deadline") from exc


def recv_message(
    sock: socket.socket, deadline: float | None = None
) -> tuple[MessageHeader, bytes]:
    """Read one framed message (by ``deadline``, if given)."""
    header = MessageHeader.unpack(recv_exact(sock, HEADER_SIZE, deadline))
    payload = recv_exact(sock, header.length, deadline) if header.length else b""
    return header, payload
