"""The socket-facing mediator session server.

Everything before this package runs in one address space; here the
paper's client <-> mediator dialogue becomes a real network protocol:
a long-lived daemon (:class:`~repro.server.daemon.MediatorServer`)
accepts TCP connections, speaks the existing LXP fragment protocol
(including the pipelined ``fill_batch`` form) through a
length-prefixed JSON wire codec (:mod:`repro.server.wire`), and runs
one *session* per connection -- its own prepared query, its own
:class:`~repro.runtime.context.ExecutionContext`, its own hole table.

The hardening is the point, not an afterthought: admission control
with typed ``mix:busy`` rejections, per-request deadlines, per-session
navigation/byte budgets, idle and stalled-reader timeouts, tolerance
for malformed frames and mid-frame disconnects (the offending session
dies, the server never does), and graceful drain on SIGTERM.

Client side, :func:`~repro.server.client.connect` opens a socket
session and hands back the ordinary :class:`~repro.client.element.
XMLElement` API -- the stack of paper Figure 7, now with a real wire
in the middle::

    XMLElement -> BufferComponent -> SocketChannel ==tcp== MediatorServer
        -> NavigableLXPServer -> VirtualDocument -> lazy operators -> sources
"""

from .client import RemoteSession, SocketChannel, connect, fetch_status
from .daemon import MediatorServer, ServerStats
from .wire import (
    FrameTooLargeError,
    MalformedFrameError,
    ServerBusyError,
    ServerDrainingError,
    ServerReplyError,
    TruncatedFrameError,
    WireError,
)

__all__ = [
    "MediatorServer", "ServerStats",
    "SocketChannel", "RemoteSession", "connect", "fetch_status",
    "ServerBusyError", "ServerDrainingError", "ServerReplyError",
    "WireError", "MalformedFrameError", "TruncatedFrameError",
    "FrameTooLargeError",
]
