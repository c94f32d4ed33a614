"""Real-socket backend: framing, transport, MiniMP, and the live sweep."""

import socket
import threading
import time

import pytest

from repro.core import netpipe_sizes
from repro.realnet import (
    DeadlineExceeded,
    MiniMP,
    MiniMPConfig,
    SocketConfig,
    connect_pair,
    run_real_netpipe,
)
from repro.realnet.framing import (
    HEADER_SIZE,
    KIND_CTS,
    KIND_DATA,
    KIND_RTS,
    FramingError,
    MessageHeader,
)
from repro.realnet import minimp
from repro.realnet.minimp import PeerClosed
from repro.units import kb


# -- framing ------------------------------------------------------------------
def test_header_roundtrip():
    h = MessageHeader(kind=KIND_DATA, tag=7, length=1234)
    assert MessageHeader.unpack(h.pack()) == h


def test_header_pack_size():
    assert len(MessageHeader(KIND_RTS, 0, 0).pack()) == HEADER_SIZE


def test_header_rejects_bad_kind():
    with pytest.raises(ValueError):
        MessageHeader(kind=99, tag=0, length=0).pack()


def test_header_unpack_rejects_bad_magic():
    raw = b"XXXX" + MessageHeader(KIND_DATA, 0, 0).pack()[4:]
    with pytest.raises(FramingError):
        MessageHeader.unpack(raw)


def test_header_rejects_oversized_fields():
    with pytest.raises(ValueError):
        MessageHeader(KIND_DATA, 0, 1 << 33).pack()


# -- transport -----------------------------------------------------------------
def test_connect_pair_roundtrip():
    a, b = connect_pair()
    try:
        a.send(KIND_DATA, tag=5, payload=b"hello")
        header, payload = b.recv()
        assert header.kind == KIND_DATA and header.tag == 5
        assert payload == b"hello"
    finally:
        a.close()
        b.close()


def test_connect_pair_large_payload():
    a, b = connect_pair()
    try:
        blob = bytes(range(256)) * 4096  # 1 MB
        done = {}

        def reader():
            _, payload = b.recv()
            done["payload"] = payload

        t = threading.Thread(target=reader)
        t.start()
        a.send(KIND_DATA, tag=0, payload=blob)
        t.join(timeout=10)
        assert done["payload"] == blob
    finally:
        a.close()
        b.close()


def test_socket_config_sets_buffers():
    a, b = connect_pair(SocketConfig(sockbuf=kb(64)))
    try:
        snd, rcv = a.effective_bufsizes()
        # Linux doubles the requested value for bookkeeping; accept any
        # grant at least as large as the request.
        assert snd >= kb(64) and rcv >= kb(64)
    finally:
        a.close()
        b.close()


def test_socket_config_rejects_bad_bufsize():
    with pytest.raises(ValueError):
        connect_pair(SocketConfig(sockbuf=0))


@pytest.mark.skipif(
    not hasattr(socket, "TCP_MAXSEG"), reason="platform has no TCP_MAXSEG"
)
def test_socket_config_clamps_the_mss():
    """Both ends of the handshake see the configured MSS (TCP options
    may shave a few bytes more off the segment payload)."""
    a, b = connect_pair(SocketConfig(mss=1000))
    try:
        for end in (a, b):
            mss = end.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_MAXSEG)
            assert 0 < mss <= 1000
    finally:
        a.close()
        b.close()


def test_socket_config_rejects_bad_mss():
    with pytest.raises(ValueError):
        connect_pair(SocketConfig(mss=0))


# -- MiniMP ---------------------------------------------------------------------
def minimp_pair(threshold=kb(64)):
    a, b = connect_pair()
    cfg = MiniMPConfig(eager_threshold=threshold)
    return MiniMP(a, cfg), MiniMP(b, cfg)


def run_peer(fn):
    t = threading.Thread(target=fn)
    t.start()
    return t


def test_minimp_eager_roundtrip():
    a, b = minimp_pair()
    try:
        got = {}
        t = run_peer(lambda: got.update(data=b.recv(5)))
        a.send(b"eager")
        t.join(timeout=10)
        assert got["data"] == b"eager"
    finally:
        a.close()
        b.close()


def test_minimp_rendezvous_roundtrip():
    a, b = minimp_pair(threshold=kb(1))
    try:
        blob = b"x" * kb(256)
        got = {}
        t = run_peer(lambda: got.update(data=b.recv(len(blob))))
        a.send(blob)  # >= threshold: RTS/CTS handshake happens inside
        t.join(timeout=10)
        assert got["data"] == blob
    finally:
        a.close()
        b.close()


def test_minimp_tag_matching_queues_unexpected():
    a, b = minimp_pair()
    try:
        got = {}

        def receiver():
            got["second"] = b.recv(6, tag=2)
            got["first"] = b.recv(5, tag=1)

        t = run_peer(receiver)
        a.send(b"first", tag=1)
        a.send(b"second", tag=2)
        t.join(timeout=10)
        assert got == {"second": b"second", "first": b"first"}
        assert b.staging_copies >= 1  # the out-of-order message staged
    finally:
        a.close()
        b.close()


def test_minimp_always_eager_mode():
    a, b = minimp_pair(threshold=None)
    try:
        blob = b"y" * kb(128)
        got = {}
        t = run_peer(lambda: got.update(data=b.recv(len(blob))))
        a.send(blob)
        t.join(timeout=10)
        assert got["data"] == blob
    finally:
        a.close()
        b.close()


def test_minimp_close_raises_peerclosed():
    a, b = minimp_pair()
    a.close()
    with pytest.raises(PeerClosed):
        b.recv(10)
    b.close()


def test_minimp_config_validation():
    with pytest.raises(ValueError):
        MiniMPConfig(eager_threshold=0)


@pytest.mark.parametrize("op", ["recv", "rendezvous send"])
def test_minimp_wait_is_bounded_by_its_deadline(op, monkeypatch):
    """A peer that never answers costs one OP_TIMEOUT, then a typed
    error, instead of a wait without end."""
    monkeypatch.setattr(minimp, "OP_TIMEOUT", 0.2)
    a, b = connect_pair()
    cfg = MiniMPConfig(eager_threshold=kb(1))
    mp, silent = MiniMP(a, cfg), MiniMP(b, cfg)
    try:
        t0 = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            if op == "recv":
                mp.recv(10)
            else:
                mp.send(bytes(kb(4)))  # waits for a CTS that never comes
        assert time.monotonic() - t0 < 5.0
    finally:
        mp.close()
        silent.close()


# -- live two-process sweep -------------------------------------------------------
def test_real_netpipe_smoke():
    sizes = netpipe_sizes(stop=kb(64))
    r = run_real_netpipe(sizes=sizes)
    assert len(r) == len(sizes)
    assert r.latency_us > 0
    assert r.max_mbps > 10  # loopback is comfortably faster than this
    # Throughput grows with message size on loopback.
    assert r.mbps_at(kb(64)) > r.mbps_at(64)


def test_real_netpipe_rendezvous_vs_eager():
    """Both protocol modes complete and measure sanely over loopback."""
    sizes = netpipe_sizes(stop=kb(256))
    eager = run_real_netpipe(sizes=sizes, eager_threshold=None)
    rndv = run_real_netpipe(sizes=sizes, eager_threshold=kb(32))
    assert eager.plateau_mbps > 10 and rndv.plateau_mbps > 10


# -- failure injection -----------------------------------------------------------
def test_garbage_bytes_raise_framing_error():
    a, b = connect_pair()
    try:
        a.sock.sendall(b"\x00" * 16)  # not a valid header
        with pytest.raises(FramingError):
            b.recv()
    finally:
        a.close()
        b.close()


def test_truncated_header_raises_connection_error():
    a, b = connect_pair()
    try:
        a.sock.sendall(b"MPRr\x00")  # 5 of 16 header bytes, then close
        a.close()
        with pytest.raises(ConnectionError):
            b.recv()
    finally:
        b.close()


def test_truncated_payload_raises_connection_error():
    from repro.realnet.framing import MessageHeader

    a, b = connect_pair()
    try:
        header = MessageHeader(kind=KIND_DATA, tag=0, length=1000).pack()
        a.sock.sendall(header + b"x" * 10)  # promise 1000, deliver 10
        a.close()
        with pytest.raises(ConnectionError):
            b.recv()
    finally:
        b.close()
