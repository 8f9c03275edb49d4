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
client-side layer -- the buffer under every fill policy, retries,
circuit breakers, degrade mode -- composes over the socket
unchanged.  Channel accounting charges *real* frame bytes; over TCP
the virtual cost model is off (the network is charging for itself).
The in-process :func:`~repro.client.remote.connect_remote` runs the
same channel over a :class:`~repro.server.wire.FramePipe` to a
:class:`~repro.server.session.Session` and prices those frames at
its ``latency_ms`` / ``ms_per_kb``.

Typed rejections from the server surface as the exceptions
:data:`~repro.server.wire.ERRORS` names: ``mix:busy`` ->
:class:`~repro.server.wire.ServerBusyError` and ``mix:draining`` ->
:class:`~repro.server.wire.ServerDrainingError` (both transient --
another connection or another moment may succeed; the retry layer may
spin on them), every other error frame ->
:class:`~repro.server.wire.ServerReplyError` (permanent: replaying
the same request at the same session cannot help).
"""

from __future__ import annotations

import socket
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..buffer.holes import Fragments
from ..client.element import XMLElement
from ..client.remote import ChannelStats, MeteredTransport
from ..errors import TransientSourceError
from ..buffer.lxp import LXPServer
from ..runtime.config import EngineConfig
from ..runtime.context import ExecutionContext, Tracer
from ..runtime.resilience import Clock
from ..runtime.locks import make_lock
from .wire import (
    MAX_FRAME_BYTES,
    TRACE_KEY,
    FramePipe,
    ServerReplyError,
    WireError,
    checked,
    close_quietly,
    decode_fragments,
    encode_trace_context,
    error_spec,
    exchange,
    wire_int,
)

__all__ = ["SocketChannel", "RemoteSession", "connect", "fetch_status"]


class SocketChannel(MeteredTransport, LXPServer):
    """An LXP server whose fills are frame round trips to a session.

    ``sock`` is a TCP socket to the daemon, or a
    :class:`~repro.server.wire.FramePipe` to an in-process session.
    One request/reply per :meth:`fill`; one per :meth:`fill_batch`
    regardless of batch width (that is the point of batching).  The
    root hole is free: its wire id came with the session.  A single
    lock serializes round trips, so threads that share one session
    never interleave frames.  Over a pipe the session answers inside
    that lock, so it is also what keeps one thread at a time in the
    exported query.

    ``stats`` is the :class:`~repro.client.remote.MeteredTransport`
    accounting of the real frame bytes (header included) at
    ``latency_ms`` / ``ms_per_kb`` virtual cost (zero by default).

    When the session carries a trace (``trace_id`` set), every
    request frame gains the wire trace envelope: the trace id, the
    client span open at call time (the server adopts it as the
    parent of its ``server.request`` span), and the sampling
    verdict.  With the default ``trace_id=None`` -- any client whose
    tracer is idle -- frames are byte-identical to before.
    """

    def __init__(self, sock: Union[socket.socket, FramePipe],
                 root_wire_id: int, timeout_ms: float = 10000.0,
                 max_frame_bytes: int = MAX_FRAME_BYTES,
                 latency_ms: float = 0.0, ms_per_kb: float = 0.0,
                 name: str = "",
                 tracer: Optional[Tracer] = None,
                 trace_id: Optional[str] = None,
                 sampled: bool = True) -> None:
        super().__init__(latency_ms, ms_per_kb, tracer=tracer,
                         name=name)
        self.sock = sock
        self.root_wire_id = root_wire_id
        self.timeout_ms = timeout_ms
        self.max_frame_bytes = max_frame_bytes
        self.trace_id = trace_id
        self.sampled = sampled
        self._lock = make_lock("client.channel")
        self.closed = False

    def _abandon_locked(self) -> None:
        """The stream is desynced, dead or done: drop the socket so
        nothing can resend onto a broken framing."""
        self.closed = True
        close_quietly(self.sock)

    # -- the round trip ----------------------------------------------------
    def call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """One request/reply exchange, serialized and accounted as
        one message carrying one command -- or, for a ``fill_batch``,
        one per hole the reply answers, speculated ones included."""
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
            try:
                # the channel mutex serializes whole round trips;
                # every wire op is bounded by exchange's settimeout,
                # and over a pipe the session answers in here, down
                # to its sources (see BLOCKING_HOLD_ALLOWED)
                # lint: allow=L011,L012
                reply, sent, received = exchange(
                    self.sock, request, self.timeout_ms,
                    self.max_frame_bytes)
            except (OSError, WireError) as err:
                self._abandon_locked()
                if isinstance(err, socket.timeout):
                    raise TransientSourceError(
                        "no reply within %.0fms" % self.timeout_ms
                        ) from None
                raise TransientSourceError(
                    "connection lost mid-exchange: %s" % err
                    ) from err
            # EOF, or an error frame behind which the server killed
            # the session: the socket has no next round trip in it.
            spec = None if reply is None else error_spec(reply)
            if reply is None or (spec and spec.killed):
                self._abandon_locked()
        replies = (reply or {}).get("replies")
        self._charge(sent + received,
                     len(replies) if isinstance(replies, list) else 1)
        return checked(reply, request["op"])

    # -- LXPServer surface -------------------------------------------------
    def get_root(self) -> Fragments:
        return Fragments.hole(self.root_wire_id)

    def fill(self, hole_id: object) -> Fragments:
        reply = self.call({"op": "fill", "hole": hole_id})
        return decode_fragments(reply.get("fragments"))

    def fill_batch(self, hole_ids: Sequence[object], speculate: int = 0
                   ) -> List[Tuple[object, Fragments]]:
        reply = self.call({"op": "fill_batch",
                           "holes": list(hole_ids),
                           "speculate": speculate})
        try:
            return [(hole, decode_fragments(fragments))
                    for hole, fragments in reply.get("replies")]
        except (TypeError, ValueError):
            raise ServerReplyError(
                "mix:protocol",
                "fill_batch reply must carry [hole, fragments] "
                "pairs, got %r" % (reply.get("replies"),)) from None

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
            try:
                # close handshake under the channel mutex, bounded
                # by exchange's settimeout
                # lint: allow=L011,L012
                exchange(self.sock, {"op": "close"}, self.timeout_ms,
                         self.max_frame_bytes)
            except (OSError, WireError):
                pass
            self._abandon_locked()


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
        """Say goodbye.  A later navigation into an unfilled hole is a
        plain demand fill on the closed channel (``mix:closed``)."""
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
    config -- its ``prefetch`` / ``batch_navigations`` knobs pick the
    buffer exactly as :func:`~repro.client.remote.connect_remote` does
    in-process, and its resilience knobs wrap the channel in
    retries/breakers.
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
    open_frame: Dict[str, Any] = {"op": "open", "query": query}
    if chunk_size is not None:
        open_frame["chunk_size"] = chunk_size
    if depth is not None:
        open_frame["depth"] = depth
    sock = socket.create_connection(
        (host, port), timeout=connect_timeout_ms / 1000.0)
    try:
        reply = checked(exchange(
            sock, open_frame, timeout_ms,
            engine_config.serve_max_frame_bytes)[0], "open")
        root_wire = reply.get("root")
        if not wire_int(root_wire):
            raise ServerReplyError(
                "mix:protocol",
                "open reply carries no root hole id: %r" % (reply,))
        # Trace context only exists when someone asked for tracing:
        # an idle tracer mints no id and ships no envelope, so the
        # default wire dialogue is byte-identical to a traceless
        # build.
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
        channel = SocketChannel(
            sock, root_wire, timeout_ms=timeout_ms,
            max_frame_bytes=engine_config.serve_max_frame_bytes,
            tracer=tracer, trace_id=trace_id,
            sampled=sampled)
        buffer, _ = source_stack(channel, "remote#", context,
                                 clock=clock, channel=True)
        root = XMLElement(buffer, buffer.root())
    except BaseException:
        # No session reaches the caller, so nobody else can close the
        # socket.
        close_quietly(sock)
        raise
    return RemoteSession(str(reply.get("session")), root, channel,
                         context)


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
    request: Dict[str, Any] = {"op": "status"}
    if prometheus:
        request["prometheus"] = True
    sock = socket.create_connection(
        (host, port), timeout=timeout_ms / 1000.0)
    try:
        reply, _, _ = exchange(sock, request, timeout_ms,
                               max_frame_bytes)
    finally:
        close_quietly(sock)
    status = checked(reply, "status").get("status")
    if not isinstance(status, dict):
        raise ServerReplyError(
            "mix:protocol",
            "status reply carries no status object: %r" % (reply,))
    return status
