"""Two-process harness: a pong echo server in a child process.

NetPIPE is a two-node program; over loopback the closest honest
equivalent is two *processes*, so sender and receiver contend for the
kernel the way two NetPIPE ranks on one host would.  The child runs
:func:`pong_server` — for each expected size it receives a message and
echoes one of equal size back, exactly NetPIPE's remote side.
"""

from __future__ import annotations

import multiprocessing
import socket
from typing import Sequence

from repro.realnet.minimp import MiniMP, MiniMPConfig, PeerClosed
from repro.realnet.transport import SocketConfig, SocketTransport


def pong_server(
    port: int,
    host: str,
    sock_config: SocketConfig,
    mp_config: MiniMPConfig,
    trials: Sequence[tuple[int, int]],
) -> None:
    """Child-process entry point: connect back and echo.

    :param trials: [(size, repeats), ...] mirroring the parent's plan
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock_config.apply(sock)
    sock.connect((host, port))
    mp = MiniMP(SocketTransport(sock), mp_config)
    payload_pool = bytes(max((s for s, _ in trials), default=1) or 1)
    try:
        for size, repeats in trials:
            reply = memoryview(payload_pool)[:size]
            for _ in range(repeats):
                mp.recv(size)
                mp.send(reply)
    except PeerClosed:
        pass
    finally:
        mp.close()


def start_pong(
    sock_config: SocketConfig,
    mp_config: MiniMPConfig,
    trials: Sequence[tuple[int, int]],
    host: str = "127.0.0.1",
) -> tuple[MiniMP, multiprocessing.Process]:
    """Spawn the echo child and return (parent endpoint, child handle)."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock_config.apply(listener)
        listener.bind((host, 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        proc = multiprocessing.Process(
            target=pong_server,
            args=(port, host, sock_config, mp_config, list(trials)),
            daemon=True,
        )
        proc.start()
        listener.settimeout(10.0)
        conn, _ = listener.accept()
        sock_config.apply(conn)
    finally:
        listener.close()
    return MiniMP(SocketTransport(conn), mp_config), proc
