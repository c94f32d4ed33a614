"""Real-socket backend: NetPIPE over live TCP on this machine.

Everything else in :mod:`repro` runs on simulated time; this package
runs the same methodology on real kernel sockets across loopback (or
any address), with a miniature message-passing library implementing the
same eager/rendezvous protocol shapes as the simulated models.  Its
absolute numbers describe *this* machine, not the paper's 2002 testbed;
its purpose is to validate the NetPIPE methodology end-to-end and to
let the protocol effects (buffer sizes, rendezvous dips, Nagle) be
demonstrated on live hardware.
"""

from repro.realnet.framing import (
    DeadlineExceeded,
    MessageHeader,
    recv_exact,
    recv_message,
    send_message,
)
from repro.realnet.transport import SocketConfig, SocketTransport, connect_pair
from repro.realnet.minimp import MiniMP, MiniMPConfig
from repro.realnet.pingpong import RealNetPipe, run_real_netpipe
from repro.realnet.world import PROGRAMS, MiniWorld, run_world

__all__ = [
    "DeadlineExceeded",
    "MessageHeader",
    "recv_exact",
    "recv_message",
    "send_message",
    "SocketConfig",
    "SocketTransport",
    "connect_pair",
    "MiniMP",
    "MiniMPConfig",
    "RealNetPipe",
    "run_real_netpipe",
    "MiniWorld",
    "PROGRAMS",
    "run_world",
]
