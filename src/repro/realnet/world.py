"""A real N-process MiniMP world over loopback TCP.

Extends the two-process harness to N ranks with a full socket mesh —
the shape every library in the paper builds for direct routing — and
implements working collective operations (dissemination barrier,
binomial broadcast and reduction) over it.  Rank 0 runs in the calling
process; ranks 1..N-1 are spawned.

Mesh bootstrap (the same dance LAM's lamboot or PVM's pvmd do):

1. rank 0 opens a listener and spawns the workers with its port;
2. every worker connects to rank 0, announces its own listener port;
3. rank 0 broadcasts the port map;
4. worker ``i`` connects to every worker ``j < i`` and accepts
   connections from every ``j > i`` — each connection starts with a
   hello message carrying the connector's rank.

Programs must be importable top-level callables (multiprocessing), so
they are looked up by name in :data:`PROGRAMS`.
"""

from __future__ import annotations

import multiprocessing
import socket
import struct
from dataclasses import dataclass
from typing import Callable

from repro.realnet.minimp import MiniMP, MiniMPConfig
from repro.realnet.transport import SocketConfig, SocketTransport

#: Control-message tags used during bootstrap.
TAG_HELLO = 900_001  # payload: struct('!II') rank, listener_port
TAG_PORTMAP = 900_002  # payload: struct('!%dI') ports by rank

#: Collective control tags (offset by peer rank where needed).
TAG_BARRIER = 910_000
TAG_BCAST = 920_000
TAG_REDUCE = 930_000


class MiniWorld:
    """One rank's handle on the real N-process mesh."""

    def __init__(self, rank: int, size: int, peers: dict[int, MiniMP]):
        if set(peers) != set(range(size)) - {rank}:
            raise ValueError("peer map must cover every other rank")
        self.rank = rank
        self.size = size
        self.peers = peers

    # -- point to point -----------------------------------------------------------
    def send(self, dst: int, payload: bytes, tag: int = 0) -> None:
        self.peers[dst].send(payload, tag=tag)

    def recv(self, src: int, nbytes: int, tag: int = 0) -> bytes:
        return self.peers[src].recv(nbytes, tag=tag)

    # -- collectives ----------------------------------------------------------------
    def barrier(self) -> None:
        """Dissemination barrier, round-tagged to stay in lockstep."""
        distance = 1
        round_no = 0
        while distance < self.size:
            dst = (self.rank + distance) % self.size
            src = (self.rank - distance) % self.size
            self.send(dst, b"B", tag=TAG_BARRIER + round_no)
            self.recv(src, 1, tag=TAG_BARRIER + round_no)
            distance *= 2
            round_no += 1

    def bcast(self, root: int, payload: bytes | None) -> bytes:
        """Binomial broadcast; returns the payload on every rank."""
        relative = (self.rank - root) % self.size
        mask = 1
        data = payload if self.rank == root else None
        while mask < self.size:
            if relative < mask:
                dst_rel = relative + mask
                if dst_rel < self.size:
                    assert data is not None
                    self.send((dst_rel + root) % self.size, data, tag=TAG_BCAST)
            elif relative < 2 * mask:
                src_rel = relative - mask
                data = self.recv(
                    (src_rel + root) % self.size, 0, tag=TAG_BCAST
                )
            mask *= 2
        assert data is not None
        return data

    def reduce_sum(self, root: int, value: int) -> int | None:
        """Binomial integer-sum reduction; root gets the total."""
        relative = (self.rank - root) % self.size
        acc = value
        mask = 1
        while mask < self.size:
            if relative & mask:
                parent_rel = relative & ~mask
                self.send(
                    (parent_rel + root) % self.size,
                    struct.pack("!q", acc),
                    tag=TAG_REDUCE,
                )
                return None
            child_rel = relative | mask
            if child_rel < self.size:
                raw = self.recv((child_rel + root) % self.size, 8, tag=TAG_REDUCE)
                acc += struct.unpack("!q", raw)[0]
            mask *= 2
        return acc

    # -- lifecycle ------------------------------------------------------------------
    def close(self) -> None:
        for mp in self.peers.values():
            mp.close()


# ---------------------------------------------------------------------------
# Bootstrap
# ---------------------------------------------------------------------------

def _hello(mp: MiniMP, rank: int, port: int) -> None:
    mp.send(struct.pack("!II", rank, port), tag=TAG_HELLO)


def _recv_hello(mp: MiniMP) -> tuple[int, int]:
    rank, port = struct.unpack("!II", mp.recv(8, tag=TAG_HELLO))
    return rank, port


def _accept(listener: socket.socket, sock_config: SocketConfig) -> MiniMP:
    conn, _ = listener.accept()
    sock_config.apply(conn)
    return MiniMP(SocketTransport(conn), MiniMPConfig())


def _connect(host: str, port: int, sock_config: SocketConfig) -> MiniMP:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock_config.apply(sock)
    sock.connect((host, port))
    return MiniMP(SocketTransport(sock), MiniMPConfig())


def _build_worker_world(
    rank: int,
    nranks: int,
    host: str,
    parent_port: int,
    sock_config: SocketConfig,
) -> MiniWorld:
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock_config.apply(listener)
    listener.bind((host, 0))
    listener.listen(nranks)
    listener.settimeout(15.0)
    my_port = listener.getsockname()[1]

    peers: dict[int, MiniMP] = {}
    peers[0] = _connect(host, parent_port, sock_config)
    _hello(peers[0], rank, my_port)
    raw = peers[0].recv(4 * nranks, tag=TAG_PORTMAP)
    ports = struct.unpack(f"!{nranks}I", raw)
    # Deterministic mesh: connect to lower non-zero ranks, accept higher.
    for j in range(1, rank):
        peers[j] = _connect(host, ports[j], sock_config)
        _hello(peers[j], rank, my_port)
    for _ in range(rank + 1, nranks):
        mp = _accept(listener, sock_config)
        peer_rank, _ = _recv_hello(mp)
        peers[peer_rank] = mp
    listener.close()
    return MiniWorld(rank, nranks, peers)


def _worker_main(
    rank: int,
    nranks: int,
    host: str,
    parent_port: int,
    sock_config: SocketConfig,
    program_name: str,
) -> None:
    world = _build_worker_world(rank, nranks, host, parent_port, sock_config)
    try:
        PROGRAMS[program_name](world)
    finally:
        world.close()


def run_world(
    nranks: int,
    program_name: str,
    sock_config: SocketConfig | None = None,
    host: str = "127.0.0.1",
):
    """Spawn the world, run ``PROGRAMS[program_name]`` on every rank,
    return rank 0's result."""
    if nranks < 2:
        raise ValueError("a world needs at least 2 ranks")
    if program_name not in PROGRAMS:
        raise KeyError(f"unknown program {program_name!r}; register it in PROGRAMS")
    sock_config = sock_config or SocketConfig()

    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock_config.apply(listener)
    listener.bind((host, 0))
    listener.listen(nranks)
    listener.settimeout(15.0)
    port0 = listener.getsockname()[1]

    procs = [
        multiprocessing.Process(
            target=_worker_main,
            args=(rank, nranks, host, port0, sock_config, program_name),
            daemon=True,
        )
        for rank in range(1, nranks)
    ]
    for p in procs:
        p.start()

    # Collect hellos, learn everyone's listener port.
    peers: dict[int, MiniMP] = {}
    ports = [0] * nranks
    try:
        for _ in range(nranks - 1):
            mp = _accept(listener, sock_config)
            rank, port = _recv_hello(mp)
            peers[rank] = mp
            ports[rank] = port
        portmap = struct.pack(f"!{nranks}I", *ports)
        for rank in range(1, nranks):
            peers[rank].send(portmap, tag=TAG_PORTMAP)
        world = MiniWorld(0, nranks, peers)
        try:
            return PROGRAMS[program_name](world)
        finally:
            world.close()
    finally:
        listener.close()
        for p in procs:
            p.join(timeout=15.0)
            if p.is_alive():  # pragma: no cover - defensive
                p.terminate()


# ---------------------------------------------------------------------------
# Program registry (top-level callables, multiprocessing-safe)
# ---------------------------------------------------------------------------

def _program_barrier_storm(world: MiniWorld):
    """Many barriers in a row: any tag/rank slip deadlocks or crashes."""
    for _ in range(20):
        world.barrier()
    return "ok"


def _program_bcast_roundtrip(world: MiniWorld):
    """Broadcast rank 0's payload, then sum a checksum back."""
    payload = bytes(range(256)) * 8 if world.rank == 0 else None
    data = world.bcast(0, payload)
    checksum = sum(data) % 1_000_003
    total = world.reduce_sum(0, checksum)
    world.barrier()
    if world.rank == 0:
        return {"bytes": len(data), "total": total, "each": checksum}
    return None


def _program_ring_token(world: MiniWorld):
    """Pass an incrementing token around the ring twice."""
    laps = 2
    if world.rank == 0:
        token = 0
        for _ in range(laps):
            world.send(1 % world.size, struct.pack("!q", token), tag=7)
            token = struct.unpack(
                "!q", world.recv(world.size - 1, 8, tag=7)
            )[0]
        return token
    for _ in range(laps):
        token = struct.unpack("!q", world.recv(world.rank - 1, 8, tag=7))[0]
        world.send((world.rank + 1) % world.size, struct.pack("!q", token + 1), tag=7)
    return None


PROGRAMS: dict[str, Callable[[MiniWorld], object]] = {
    "barrier-storm": _program_barrier_storm,
    "bcast-roundtrip": _program_bcast_roundtrip,
    "ring-token": _program_ring_token,
}
