"""Transport-layer fault injection for the session server.

The :mod:`repro.testing.faults` toolkit misbehaves at the LXP/
channel/document seams; this module misbehaves *below* them, on the
raw TCP stream, exercising exactly the failure modes the daemon's
hardening claims to contain:

* garbage bytes where a frame should be (:func:`send_garbage`);
* a frame that announces more payload than it delivers, then a
  disconnect (:func:`send_truncated_frame`) -- the classic mid-frame
  crash;
* a slow-loris that dribbles half a header and then goes silent
  (:func:`slow_loris`), which must fall to the idle timeout;
* a stalled reader (:class:`StalledReader`) that requests a large
  reply and never drains it, which must fall to the send timeout;
* scripted well-behaved sessions (:func:`scripted_session`) whose
  raw reply bytes can be compared byte-for-byte across runs -- the
  golden-trace proof that a misbehaving neighbour changed *nothing*
  for the survivors.

Everything here is deterministic and sleep-free: the only waiting is
on socket operations bounded by explicit timeouts (the tests keep
them tiny).
"""

from __future__ import annotations

import socket
import struct
from typing import Any, Dict, List, Optional

from ..server.wire import (
    WireError,
    close_quietly,
    decode_frame,
    exchange,
    frame_bytes,
    recv_frame_bytes,
    send_frame,
    wire_holes,
)

__all__ = [
    "open_raw", "send_frame_bytes", "frame_bytes", "recv_reply_bytes",
    "send_garbage", "send_truncated_frame", "slow_loris",
    "abrupt_disconnect", "StalledReader", "scripted_session",
]


def open_raw(host: str, port: int,
             timeout_ms: float = 2000.0) -> socket.socket:
    """A raw client socket with an explicit timeout (nothing in the
    fault kit may hang a test run)."""
    return socket.create_connection((host, port),
                                    timeout=timeout_ms / 1000.0)


def send_frame_bytes(sock: socket.socket,
                     payload: Dict[str, Any]) -> None:
    """One well-formed frame, sent with no reply awaited."""
    send_frame(sock, payload)


def recv_reply_bytes(sock: socket.socket) -> bytes:
    """One whole reply frame as raw bytes (b"" on EOF/timeout) --
    the unit of golden-trace comparison."""
    try:
        return recv_frame_bytes(sock)
    except (OSError, WireError):
        return b""


def _decode(raw: bytes) -> Optional[Dict[str, Any]]:
    try:
        return decode_frame(raw)
    except WireError:
        return None


def _send_malformed(sock: socket.socket, data: bytes) -> None:
    """The fault kit's one write that is not a frame."""
    # lint: allow=X103 -- garbage and cut-off frames are the point
    sock.sendall(data)


# ----------------------------------------------------------------------
# the misbehaving clients
# ----------------------------------------------------------------------

def send_garbage(host: str, port: int,
                 data: bytes = b"\x00\x00\x00\x04not-json",
                 timeout_ms: float = 2000.0
                 ) -> Optional[Dict[str, Any]]:
    """Send raw non-protocol bytes; return the server's typed error
    reply (``mix:protocol``), or None if it closed without one."""
    sock = open_raw(host, port, timeout_ms)
    try:
        _send_malformed(sock, data)
        return _decode(recv_reply_bytes(sock))
    finally:
        sock.close()


def send_truncated_frame(host: str, port: int,
                         declared: int = 512,
                         delivered: bytes = b'{"op":',
                         timeout_ms: float = 2000.0) -> None:
    """Announce ``declared`` payload bytes, deliver a prefix, and
    disconnect mid-frame.  The server must classify this as a
    truncation and kill only the offending session."""
    sock = open_raw(host, port, timeout_ms)
    try:
        _send_malformed(sock, declared.to_bytes(4, "big") + delivered)
    finally:
        sock.close()


def slow_loris(host: str, port: int,
               timeout_ms: float = 5000.0) -> Optional[Dict[str, Any]]:
    """Dribble half a header, then go silent and wait for the
    server's verdict.  Returns the typed ``mix:idle`` reply the
    server sends before killing the connection (or None if it just
    closed)."""
    return send_garbage(host, port, b"\x00\x00", timeout_ms)


def abrupt_disconnect(host: str, port: int, query: str,
                      timeout_ms: float = 2000.0) -> str:
    """Open a real session, then vanish mid-frame (a client crash).

    Returns the session id the server had assigned, so a test can
    assert the kill was charged to exactly this session.
    """
    sock = open_raw(host, port, timeout_ms)
    try:
        reply, _, _ = exchange(sock, {"op": "open", "query": query},
                               timeout_ms)
        session_id = str(reply.get("session")) if reply else ""
        # Half a fill frame, then a hard close.
        _send_malformed(sock, frame_bytes({"op": "fill", "hole": 1})[:16])
        # RST instead of FIN: the rudest possible exit.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0))
        return session_id
    finally:
        sock.close()


class StalledReader:
    """A client that asks for data and never reads it.

    The receive buffer is clamped tiny before connecting, so a large
    reply fills the server's send buffer and stalls its ``sendall``
    -- the backpressure case the send timeout exists for.  Use as a
    context manager; :meth:`request_and_stall` fires the fill and
    returns without reading.
    """

    def __init__(self, host: str, port: int,
                 timeout_ms: float = 5000.0) -> None:
        self.timeout_ms = timeout_ms
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1024)
        self.sock.settimeout(timeout_ms / 1000.0)
        self.sock.connect((host, port))

    def open(self, query: str, chunk_size: Optional[int] = None
             ) -> Optional[Dict[str, Any]]:
        frame: Dict[str, Any] = {"op": "open", "query": query}
        if chunk_size is not None:
            frame["chunk_size"] = chunk_size
        return exchange(self.sock, frame, self.timeout_ms)[0]

    def request_and_stall(self, hole: int) -> None:
        """Fire a fill and stop reading: the reply has nowhere to
        go once the kernel buffers fill."""
        send_frame(self.sock, {"op": "fill", "hole": hole})

    def __enter__(self) -> "StalledReader":
        return self

    def __exit__(self, *exc: object) -> None:
        close_quietly(self.sock)


# ----------------------------------------------------------------------
# the well-behaved control
# ----------------------------------------------------------------------

def scripted_session(host: str, port: int, query: str,
                     fills: int = 3,
                     timeout_ms: float = 5000.0
                     ) -> List[bytes]:
    """One deterministic session: open, fill the root, then fill the
    first ``fills - 1`` holes each reply exposes, then close.

    Returns the raw bytes of every reply frame, in order -- two runs
    of the same script against the same view must be byte-identical,
    whatever any *other* session is doing to the server.
    """
    replies: List[bytes] = []
    sock = open_raw(host, port, timeout_ms)

    def ask(request: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """The ``ok`` reply to ``request``, its raw bytes kept."""
        send_frame(sock, request)
        replies.append(recv_reply_bytes(sock))
        reply = _decode(replies[-1])
        return reply if reply is not None and reply.get("ok") else None

    try:
        opened = ask({"op": "open", "query": query})
        if opened is None:
            return replies
        frontier: List[int] = [opened["root"]]
        for _ in range(fills):
            if not frontier:
                break
            filled = ask({"op": "fill", "hole": frontier.pop(0)})
            if filled is None:
                return replies
            frontier.extend(wire_holes(filled.get("fragments")))
        ask({"op": "close"})
        return replies
    finally:
        sock.close()
