"""The socket client: a session onto a remote mediator daemon.

:func:`connect` opens a TCP connection to a
:class:`~repro.server.daemon.MediatorServer`, sends the ``open``
frame carrying an XMAS query, and hands back a
:class:`RemoteSession` whose :attr:`~RemoteSession.root` is the
ordinary :class:`~repro.client.element.XMLElement` navigation
surface -- the paper's Figure 7 stack with a real wire in the
middle::

    XMLElement -> buffer -> [resilience] -> SocketChannel ==tcp==
        MediatorServer -> NavigableLXPServer -> VirtualDocument

:class:`SocketChannel` is an :class:`~repro.buffer.lxp.LXPServer`
whose fills are request/reply frame round trips, so every existing
client-side layer -- plain, prefetching, thread-backed, and batching
buffers, retries, circuit breakers, degrade mode -- composes over the
socket unchanged.  Channel accounting charges *real* wire bytes (no
virtual cost model: the network is charging for itself now).

Typed rejections from the server surface as exceptions:
``mix:busy`` -> :class:`ServerBusyError` and ``mix:draining`` ->
:class:`ServerDrainingError` (both transient -- another connection or
another moment may succeed; the retry layer may spin on them), every
other error frame -> :class:`ServerReplyError` (permanent: replaying
the same request at the same session cannot help).
"""

from __future__ import annotations

import socket
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..buffer.holes import FragHole, Fragment
from ..client.element import XMLElement
from ..client.remote import ChannelStats
from ..errors import PermanentSourceError, TransientSourceError
from ..buffer.lxp import LXPServer
from ..runtime.config import EngineConfig
from ..runtime.context import ExecutionContext, Tracer
from ..runtime.resilience import Clock
from ..runtime.locks import make_lock
from .wire import (
    MAX_FRAME_BYTES,
    TRACE_KEY,
    WireError,
    decode_fragments,
    encode_trace_context,
    recv_frame_sized,
    send_frame,
)

__all__ = ["ServerBusyError", "ServerDrainingError", "ServerReplyError",
           "SocketChannel", "RemoteSession", "connect",
           "fetch_status"]


class ServerBusyError(TransientSourceError):
    """The daemon refused admission (``mix:busy``): it is at its
    session capacity.  Transient -- capacity frees up as sessions
    close."""


class ServerDrainingError(TransientSourceError):
    """The daemon is draining (``mix:draining``).  Transient from the
    fleet's point of view: a replacement server may be accepting."""


class ServerReplyError(PermanentSourceError):
    """The daemon answered with a typed error frame (``mix:protocol``,
    ``mix:deadline``, ``mix:budget``, ``mix:idle``, ``mix:query``,
    ``mix:error``).  Permanent for *this* session: the server killed
    it, so replaying the request cannot succeed."""

    def __init__(self, code: str, detail: str) -> None:
        super().__init__("%s: %s" % (code, detail))
        self.code = code
        self.detail = detail


def _raise_error_reply(reply: Dict[str, Any]) -> None:
    """Map an ``{"ok": false}`` frame to its typed exception."""
    code = reply.get("error", "mix:error")
    detail = str(reply.get("detail", ""))
    if code == "mix:busy":
        raise ServerBusyError(detail or "server busy")
    if code == "mix:draining":
        raise ServerDrainingError(detail or "server draining")
    raise ServerReplyError(str(code), detail)


class SocketChannel(LXPServer):
    """An LXP server whose fills are socket round trips.

    One request/reply per :meth:`fill`; one per :meth:`fill_batch`
    regardless of batch width (that is the point of batching).  A
    single lock serializes round trips: with thread-backed prefetching
    several client-side workers share this one connection, and frames
    must not interleave.

    ``stats`` is a plain :class:`~repro.client.remote.ChannelStats`
    charged with real bytes on the wire (header included), so every
    existing report/metric over channel traffic works unchanged.

    When the session carries a trace (``trace_id`` set), every
    request frame gains the wire trace envelope: the trace id, the
    client span open at call time (the server adopts it as the
    parent of its ``server.request`` span), and the sampling
    verdict.  With the default ``trace_id=None`` -- any client whose
    tracer is idle -- frames are byte-identical to before.
    """

    def __init__(self, sock: socket.socket, root_wire_id: int,
                 timeout_ms: float,
                 max_frame_bytes: int = MAX_FRAME_BYTES,
                 name: str = "",
                 tracer: Optional[Tracer] = None,
                 trace_id: Optional[str] = None,
                 sampled: bool = True) -> None:
        self.sock = sock
        self.root_wire_id = root_wire_id
        self.timeout_ms = timeout_ms
        self.max_frame_bytes = max_frame_bytes
        self.name = name
        self.tracer = tracer
        self.trace_id = trace_id
        self.sampled = sampled
        self.stats = ChannelStats()
        self._lock = make_lock("client.channel")
        self.closed = False

    # -- the round trip ----------------------------------------------------
    def call(self, request: Dict[str, Any],
             commands: int = 1) -> Dict[str, Any]:
        """One request/reply exchange, serialized and accounted."""
        if self.trace_id is not None:
            parent = (self.tracer.current_span()
                      if self.tracer is not None else None)
            request = dict(request)
            request[TRACE_KEY] = encode_trace_context(
                self.trace_id, parent, self.sampled)
        with self._lock:
            if self.closed:
                raise ServerReplyError("mix:closed",
                                       "session already closed")
            self.sock.settimeout(self.timeout_ms / 1000.0)
            try:
                # the channel mutex serializes whole round trips;
                # every wire op is bounded by the settimeout above
                # (see BLOCKING_HOLD_ALLOWED)
                # lint: allow=L011
                sent = send_frame(self.sock, request,
                                  self.max_frame_bytes)
                # lint: allow=L011 -- same deadline-bounded round trip
                reply, received = recv_frame_sized(self.sock,
                                                   self.max_frame_bytes)
            except (socket.timeout, ConnectionError, OSError,
                    WireError) as err:
                # The stream is desynced or gone: abandon the channel
                # so a retry cannot resend onto a broken framing.
                self.closed = True
                try:
                    self.sock.close()
                except OSError:
                    pass
                if isinstance(err, socket.timeout):
                    raise TransientSourceError(
                        "no reply within %.0fms" % self.timeout_ms
                        ) from None
                raise TransientSourceError(
                    "connection lost mid-exchange: %s" % err
                    ) from err
            with self.stats.lock:
                self.stats.messages += 1
                self.stats.commands += commands
                self.stats.bytes_transferred += sent + received
        if self.tracer is not None and self.tracer.active:
            self.tracer.emit("channel", "round_trip",
                             bytes=sent + received, commands=commands)
        if reply is None:
            with self._lock:
                self.closed = True
                try:
                    self.sock.close()
                except OSError:
                    pass
            raise TransientSourceError(
                "server closed the connection mid-session")
        if not reply.get("ok"):
            _raise_error_reply(reply)
        return reply

    # -- LXPServer surface -------------------------------------------------
    def get_root(self) -> FragHole:
        return FragHole(self.root_wire_id)

    def fill(self, hole_id: object) -> List[Fragment]:
        reply = self.call({"op": "fill", "hole": hole_id})
        fragments = reply.get("fragments")
        if fragments is None:
            raise ServerReplyError("mix:protocol",
                                   "fill reply carries no fragments")
        return decode_fragments(fragments)

    def fill_batch(self, hole_ids: Sequence[object], speculate: int = 0
                   ) -> List[Tuple[object, List[Fragment]]]:
        reply = self.call({"op": "fill_batch",
                           "holes": list(hole_ids),
                           "speculate": speculate},
                          commands=len(hole_ids))
        pairs = reply.get("replies")
        if not isinstance(pairs, list):
            raise ServerReplyError("mix:protocol",
                                   "fill_batch reply carries no "
                                   "replies array")
        decoded: List[Tuple[object, List[Fragment]]] = []
        for pair in pairs:
            if not isinstance(pair, list) or len(pair) != 2:
                raise ServerReplyError(
                    "mix:protocol",
                    "fill_batch reply pair must be "
                    "[hole, fragments], got %r" % (pair,))
            decoded.append((pair[0], decode_fragments(pair[1])))
        return decoded

    # -- session control ---------------------------------------------------
    def ping(self) -> bool:
        return bool(self.call({"op": "ping"}).get("pong"))

    def server_stats(self) -> Dict[str, Any]:
        reply = self.call({"op": "stats"})
        return {"session": reply.get("stats"),
                "server": reply.get("server")}

    def close(self) -> None:
        """Polite close: tell the server, then drop the socket.
        Idempotent and tolerant of a server that is already gone."""
        with self._lock:
            if self.closed:
                return
            self.closed = True
            try:
                self.sock.settimeout(self.timeout_ms / 1000.0)
                # close handshake under the channel mutex, bounded
                # by the settimeout above
                # lint: allow=L011
                send_frame(self.sock, {"op": "close"},
                           self.max_frame_bytes)
                # lint: allow=L011 -- same deadline-bounded handshake
                recv_frame_sized(self.sock, self.max_frame_bytes)
            except (socket.timeout, OSError, WireError):
                pass
            try:
                self.sock.close()
            except OSError:
                pass


class RemoteSession:
    """One open session against a remote daemon.

    ``root`` is the client-side :class:`XMLElement`; navigate it like
    any in-process result.  ``channel.stats`` carries the real wire
    traffic, ``context.stats_report()`` the whole client-side picture
    (buffer residency, retries, breaker state).  Context-manager
    friendly: ``with connect(...) as session: ...`` closes politely.
    """

    def __init__(self, session_id: str, root: XMLElement,
                 channel: SocketChannel,
                 context: ExecutionContext) -> None:
        self.session_id = session_id
        self.root = root
        self.channel = channel
        self.context = context

    @property
    def stats(self) -> ChannelStats:
        return self.channel.stats

    def ping(self) -> bool:
        return self.channel.ping()

    def server_stats(self) -> Dict[str, Any]:
        """The server's view of this session (and the daemon's own
        counters), fetched over the wire."""
        return self.channel.server_stats()

    def close(self) -> None:
        self.channel.close()

    def __enter__(self) -> "RemoteSession":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def connect(host: str, port: int, query: str,
            config: Optional[EngineConfig] = None,
            context: Optional[ExecutionContext] = None,
            timeout_ms: float = 10000.0,
            connect_timeout_ms: float = 5000.0,
            chunk_size: Optional[int] = None,
            depth: Optional[int] = None,
            clock: Optional[Clock] = None) -> RemoteSession:
    """Open a session: connect, send ``open``, build the client stack.

    ``config`` (or ``context.config``) is the *client-side* engine
    config -- its ``prefetch`` / ``prefetch_workers`` /
    ``batch_navigations`` knobs pick the buffer exactly as
    :func:`~repro.client.remote.connect_remote` does in-process, and
    its resilience knobs wrap the channel in retries/breakers.
    ``chunk_size`` / ``depth`` override the *server's* shipping
    granularity for this session.

    Raises :class:`ServerBusyError` / :class:`ServerDrainingError`
    when admission is refused, :class:`ServerReplyError` when the
    query itself is rejected.
    """
    from ..wrappers.base import source_stack

    if context is None:
        context = ExecutionContext(
            config if config is not None else EngineConfig())
    engine_config = context.config
    sock = socket.create_connection(
        (host, port), timeout=connect_timeout_ms / 1000.0)
    try:
        sock.settimeout(timeout_ms / 1000.0)
        open_frame: Dict[str, Any] = {"op": "open", "query": query}
        if chunk_size is not None:
            open_frame["chunk_size"] = chunk_size
        if depth is not None:
            open_frame["depth"] = depth
        send_frame(sock, open_frame,
                   engine_config.serve_max_frame_bytes)
        reply, _ = recv_frame_sized(sock,
                                    engine_config.serve_max_frame_bytes)
    except BaseException:
        sock.close()
        raise
    if reply is None:
        sock.close()
        raise TransientSourceError(
            "server closed the connection before answering 'open'")
    if not reply.get("ok"):
        sock.close()
        _raise_error_reply(reply)
    root_wire = reply.get("root")
    session_id = str(reply.get("session"))
    if not isinstance(root_wire, int) or isinstance(root_wire, bool):
        sock.close()
        raise ServerReplyError(
            "mix:protocol",
            "open reply carries no root hole id: %r" % (reply,))
    # Trace context only exists when someone asked for tracing: an
    # idle tracer mints no id and ships no envelope, so the default
    # wire dialogue is byte-identical to a traceless build.
    tracer = context.tracer
    trace_id: Optional[str] = None
    sampled = True
    if tracer.configured:
        trace_id = tracer.ensure_trace_id()
        sampled = tracer.sample(engine_config.trace_sample_rate)
        if tracer.active:
            tracer.emit("trace", "sample", trace_id=trace_id,
                        sampled=sampled,
                        rate=engine_config.trace_sample_rate)
    channel = SocketChannel(sock, root_wire, timeout_ms=timeout_ms,
                            max_frame_bytes=(
                                engine_config.serve_max_frame_bytes),
                            tracer=tracer, trace_id=trace_id,
                            sampled=sampled)
    buffer, _ = source_stack(channel, "remote#", context, clock=clock,
                             channel=True)
    root = XMLElement(buffer, buffer.root())
    return RemoteSession(session_id, root, channel, context)


def fetch_status(host: str, port: int,
                 timeout_ms: float = 5000.0,
                 prometheus: bool = False,
                 max_frame_bytes: int = MAX_FRAME_BYTES
                 ) -> Dict[str, Any]:
    """One-shot ``mix:status`` probe: connect, ask, disconnect.

    The admin verb needs no session: ``status`` is legal as a
    connection's first (and only) frame, and the daemon closes the
    connection after answering.  Returns the reply's ``status``
    payload; ``prometheus=True`` asks the daemon to inline its
    Prometheus text exposition under the ``"prometheus"`` key.

    Raises ``OSError``/``ConnectionError`` when the daemon is
    unreachable and the usual typed errors on an error reply.
    """
    sock = socket.create_connection(
        (host, port), timeout=timeout_ms / 1000.0)
    try:
        sock.settimeout(timeout_ms / 1000.0)
        request: Dict[str, Any] = {"op": "status"}
        if prometheus:
            request["prometheus"] = True
        send_frame(sock, request, max_frame_bytes)
        reply, _ = recv_frame_sized(sock, max_frame_bytes)
    finally:
        try:
            sock.close()
        except OSError:
            pass
    if reply is None:
        raise TransientSourceError(
            "server closed the connection before answering 'status'")
    if not reply.get("ok"):
        _raise_error_reply(reply)
    status = reply.get("status")
    if not isinstance(status, dict):
        raise ServerReplyError(
            "mix:protocol",
            "status reply carries no status object: %r" % (reply,))
    return status
