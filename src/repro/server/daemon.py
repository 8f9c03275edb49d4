"""The mediator daemon: LXP sessions over real sockets, hardened.

:class:`MediatorServer` turns a configured
:class:`~repro.mediator.mix.MIXMediator` into a long-lived TCP
service.  One connection is one *session*: the first frame must be an
``open`` carrying an XMAS query; the server prepares it (its own
:class:`~repro.runtime.context.ExecutionContext`, caches, tracing)
and exports the virtual answer through the wire codec; subsequent
``fill`` / ``fill_batch`` frames navigate it exactly as the
in-process LXP dialogue would, holes travelling as session-scoped
integers.

Threading model: one accept-loop thread plus one handler thread per
connection (the PR 3 thread-safety pass across the tracer, caches,
breakers, and stats objects is what makes the shared mediator safe
to navigate from many handler threads at once).  One writer per
connection: only a connection's own handler thread ever sends on it,
so every request is answered by exactly its own reply -- nobody else
can slip a frame in between.

Hardening (all knobs on :class:`~repro.runtime.config.EngineConfig`,
``serve_*`` fields):

* **admission control** -- at ``serve_max_sessions`` open sessions a
  new connection is answered with a typed ``mix:busy`` frame and
  closed.
* **idle timeout** -- a client that stops talking (including a
  slow-loris dribbling half a frame) is killed after
  ``serve_idle_timeout_ms`` with a best-effort ``mix:idle`` reply.
* **backpressure** -- a client that stops *reading* stalls the
  server's send; after ``serve_send_timeout_ms`` the session is
  killed, freeing the handler instead of buffering unboundedly.
* **deadlines** -- ``serve_request_deadline_ms`` bounds the
  navigation work of a single request via a clock check on every
  document navigation (``mix:deadline``).
* **budgets** -- ``serve_session_max_fills`` /
  ``serve_session_max_bytes`` bound one session's total navigation
  and shipped-fragment volume (``mix:budget``).
* **fault tolerance** -- malformed frames, oversized frames,
  mid-frame disconnects, and handler-internal errors kill the
  offending *session* only; sibling sessions and the accept loop
  never observe them.
* **graceful drain** -- :meth:`MediatorServer.drain` (wired to
  SIGTERM by the ``serve`` CLI) stops accepting and wakes every
  session; each handler finishes the request it is in, sends the
  reply it owes, *then* says ``mix:draining`` and closes (an idle
  session hears the notice at once); stragglers are force-closed
  after ``serve_drain_timeout_ms``.
"""

from __future__ import annotations

import bisect
import contextlib
import socket
import threading
import time
from dataclasses import dataclass
from typing import (Any, Callable, ContextManager, Dict, List,
                    Optional, Tuple)

from ..mediator.mix import MIXMediator
from ..runtime.observability import (
    Family,
    FlightRecorder,
    render_prometheus,
)
from ..runtime.resilience import SYSTEM_CLOCK, Clock
from .session import FAULTS, Session, fault
from .wire import (
    WireError,
    close_quietly,
    decode_trace_context,
    recv_frame,
    send_frame,
    wire_int,
)
from ..runtime.counters import Counters
from ..runtime.locks import make_lock

__all__ = ["ServerStats", "MediatorServer", "OPS", "FAULTS"]

#: The ops of the wire protocol (the PROTOCOLS.md op table is
#: generated from this): ``open`` and ``status`` are answered by the
#: daemon -- they are legal before a session exists -- the rest by
#: the connection's :class:`~repro.server.session.Session`.
OPS: Tuple[str, ...] = ("open", "status") + tuple(Session.OPS)

#: accept-loop poll granularity: how often the loop wakes to notice
#: a drain request (the listener socket's timeout, in seconds)
_ACCEPT_POLL_S = 0.05

#: kernel accept queue behind the admission gate
_ACCEPT_BACKLOG = 16

#: the one thing the daemon says to a session it is draining
_DRAINING = ("mix:draining", "server is draining")

#: latency buckets of the always-on per-request histogram (ms): the
#: finite upper bounds, one :class:`_RequestStats` field each
_REQUEST_MS_BUCKETS = (1.0, 5.0, 25.0, 100.0, 500.0, 2500.0, 10000.0)

#: the :class:`_RequestStats` field of each latency bucket, ``+Inf``
#: last
_BUCKET_FIELDS = tuple("le_%d" % bound for bound in _REQUEST_MS_BUCKETS
                       ) + ("le_inf",)


@dataclass
class ServerStats(Counters, shared=True):
    """Lifetime counters of one daemon, self-locked.

    Mutated by the accept loop and every handler thread; read through
    :meth:`snapshot` by reporters (the ``stats`` wire op, the load
    generator, tests) while traffic is live.  Declared in name order:
    that is the order ``mix:status`` ships them in.
    """

    accepted: int = 0
    budget_kills: int = 0
    deadline_kills: int = 0
    disconnect_kills: int = 0
    drained: int = 0
    #: fill commands answered (``fill`` = 1, ``fill_batch`` = its
    #: hole count) -- what client-side fill accounting reconciles
    #: against (a client's ``ChannelStats.commands`` also counts the
    #: speculated replies a ``fill_batch`` brought)
    fills: int = 0
    idle_kills: int = 0
    internal_kills: int = 0
    protocol_kills: int = 0
    query_rejects: int = 0
    rejected_busy: int = 0
    rejected_draining: int = 0
    #: requests answered successfully (any session-protocol op;
    #: admin ``status`` probes are counted separately)
    requests: int = 0
    sessions_closed: int = 0
    sessions_opened: int = 0
    stalled_kills: int = 0


@dataclass
class _RequestStats(Counters, shared=True):
    """The request telemetry of one op, self-locked: the facts no
    :class:`ServerStats` field keeps, apart from it because
    ``mix:status`` ships every ``ServerStats`` field.  Charged by
    handler threads once per request, between requests, under no
    other lock.
    """

    #: replies delivered
    answered: int = 0
    #: requests at or over ``slow_request_ms``
    slow: int = 0
    #: admin status probes answered (the ``status`` op's only)
    probes: int = 0
    #: dispatch latency, summed (ms)
    ms_sum: float = 0.0
    #: dispatch latencies per ``_REQUEST_MS_BUCKETS`` bucket (at most
    #: the bound), not cumulative
    le_1: int = 0
    le_5: int = 0
    le_25: int = 0
    le_100: int = 0
    le_500: int = 0
    le_2500: int = 0
    le_10000: int = 0
    le_inf: int = 0

    def observe(self, elapsed_ms: float, slow: bool) -> None:
        """Count one dispatch: its latency bucket and sum, and whether
        it was slow."""
        bucket = _BUCKET_FIELDS[
            bisect.bisect_left(_REQUEST_MS_BUCKETS, elapsed_ms)]
        with self.lock:
            setattr(self, bucket, getattr(self, bucket) + 1)
            self.ms_sum += elapsed_ms
            self.slow += slow


class _Handler:
    """Bookkeeping record of one live connection."""

    def __init__(self, conn: socket.socket, address: Tuple[str, int],
                 serve: Callable[["_Handler"], None]) -> None:
        self.conn = conn
        self.address = address
        #: runs ``serve(self)``; the only thread that ever writes to
        #: ``conn``
        self.thread = threading.Thread(
            target=serve, args=(self,), name="mix-session",
            daemon=True)
        #: the admission verdict: True admitted, False ``mix:busy``,
        #: None ``mix:draining``
        self.admitted: Optional[bool] = None
        self.session: Optional[Session] = None

    @property
    def session_id(self) -> Optional[str]:
        """The session's id; None before ``open`` succeeds."""
        return self.session.session_id if self.session else None


class MediatorServer:
    """A hardened TCP daemon serving mediator sessions over LXP.

    Usage::

        server = MediatorServer(mediator)       # config from mediator
        host, port = server.start()
        ...
        server.drain()                          # graceful shutdown

    or as a context manager (``__exit__`` drains).  ``clock`` injects
    the time source for request deadlines (tests use a
    :class:`~repro.testing.faults.FakeClock`); socket-level timeouts
    (idle, send) are real kernel timeouts and always use wall time.
    """

    def __init__(self, mediator: MIXMediator,
                 clock: Optional[Clock] = None) -> None:
        self.mediator = mediator
        self.config = mediator.config
        self.clock: Clock = clock if clock is not None else SYSTEM_CLOCK
        self.stats = ServerStats()
        self.tracer = mediator.tracer
        #: always-on request telemetry, one counters object per op of
        #: :data:`OPS`: a fixed table, since only ops that dispatched
        #: reach it.  Touched once per request, never per navigation;
        #: read with :attr:`stats` at scrape time
        #: (:meth:`prometheus_text`).
        self.op_stats: Dict[str, _RequestStats] = {
            op: _RequestStats() for op in OPS}
        #: the flight recorder: always on, dumped on kills and drain
        self.recorder = FlightRecorder(
            capacity=self.config.serve_flight_recorder_events,
            incident_dir=self.config.serve_incident_dir,
            clock=self.clock)
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        #: the admitted connections: its length is the session count
        self._handlers: List[_Handler] = []
        self._session_serial = 0
        self._draining = False
        self._started = False
        self._lock = make_lock("server.daemon")
        self.address: Optional[Tuple[str, int]] = None

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> Tuple[str, int]:
        """Bind, listen, and start accepting; returns (host, port)."""
        with self._lock:
            if self._started:
                raise RuntimeError("server already started")
            self._started = True
        config = self.config
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((config.serve_host, config.serve_port))
        listener.listen(_ACCEPT_BACKLOG)
        # The timeout doubles as the drain poll: the accept loop wakes
        # at this cadence to notice a drain request.
        listener.settimeout(_ACCEPT_POLL_S)
        self._listener = listener
        self.address = listener.getsockname()[:2]
        self._note("listen", host=self.address[0],
                   port=self.address[1],
                   max_sessions=config.serve_max_sessions)
        thread = threading.Thread(target=self._accept_loop,
                                  name="mix-accept", daemon=True)
        self._accept_thread = thread
        thread.start()
        return self.address

    def __enter__(self) -> "MediatorServer":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.drain()

    @property
    def active_sessions(self) -> int:
        """Currently admitted (not yet closed) sessions."""
        with self._lock:
            return len(self._handlers)

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    # -- accept loop -------------------------------------------------------
    def _accept_loop(self) -> None:
        listener = self._listener
        assert listener is not None
        while True:
            try:
                conn, address = listener.accept()
            except socket.timeout:
                if self.draining:
                    return
                continue
            except OSError:
                # Listener closed (drain) -- exit quietly.
                return
            handler = _Handler(conn, address[:2], self._handle)
            # Admission: append under the lock if there is room.
            with self._lock:
                if self._draining:
                    handler.admitted = None
                elif len(self._handlers) \
                        < self.config.serve_max_sessions:
                    self._handlers.append(handler)
                    handler.admitted = True
                else:
                    handler.admitted = False
            self.stats.bump("accepted")
            self.tracer.emit("server", "accept", peer=address[0])
            if self.config.serve_send_buffer_bytes is not None:
                try:
                    conn.setsockopt(
                        socket.SOL_SOCKET, socket.SO_SNDBUF,
                        self.config.serve_send_buffer_bytes)
                except OSError:
                    pass
            handler.thread.start()

    # -- the session protocol ----------------------------------------------
    def _reply(self, handler: _Handler, payload: Dict[str, Any]
               ) -> None:
        """Send one frame under the send timeout (a stalled reader
        raises ``socket.timeout``).  Called from ``handler.thread``
        only: one writer per connection."""
        config = self.config
        handler.conn.settimeout(config.serve_send_timeout_ms / 1000.0)
        send_frame(handler.conn, payload, config.serve_max_frame_bytes)

    def _error_reply(self, handler: _Handler, code: str, detail: str
                     ) -> None:
        """Best-effort typed error frame: the peer may already be
        gone, in which case the error is only in the stats/trace."""
        try:
            self._reply(handler, {"ok": False, "error": code,
                                  "detail": detail})
        except (OSError, WireError):
            pass

    def _drained(self, handler: _Handler) -> None:
        """End one session for the drain: count it and tell the peer.
        Sent by the session's own handler, hence always *after* any
        reply the session still owed."""
        self.stats.bump("drained")
        self._error_reply(handler, *_DRAINING)

    def _note(self, event: str, **data: Any) -> None:
        """One server-level event, to the tracer and the flight
        recorder alike."""
        # lint: allow=E002 -- forwarding seam; callers pass literals
        self.tracer.emit("server", event, **data)
        self.recorder.record("server", event, **data)

    def _kill(self, handler: _Handler, reason: str,
              detail: str = "") -> None:
        """Terminate one session (never the server), counted under
        ``<reason>_kills`` and leaving a full incident dump of the
        flight-recorder ring behind."""
        self.stats.bump(reason + "_kills")
        session_id = handler.session_id
        self._note("kill", session=session_id, reason=reason,
                   detail=detail)
        self.recorder.incident(reason, session=session_id,
                               detail=detail)

    def _fail(self, handler: _Handler, phase: str,
              error: BaseException) -> None:
        """End one session on ``error``, as its :data:`FAULTS` row
        says: count it, dump the incident, tell the peer."""
        if phase == "recv" and self.draining:
            # The drain woke this recv; the session is not at fault.
            return self._drained(handler)
        reason, code, detail = fault(
            phase, error, self.config.serve_idle_timeout_ms)
        if reason is not None:
            self._kill(handler, reason, detail=type(error).__name__)
        else:
            self.stats.bump("query_rejects")
        if code is not None:
            self._error_reply(handler, code, detail)

    def _open_session(self, handler: _Handler,
                      frame: Dict[str, Any]) -> Dict[str, Any]:
        """Prepare the query and wire up the session state."""
        query = frame.get("query")
        if not isinstance(query, str) or not query.strip():
            raise WireError("open frame must carry a non-empty "
                            "'query' string")
        for key in ("chunk_size", "depth"):
            value = frame.get(key)
            if value is not None and not wire_int(value):
                raise WireError("%s must be an integer, got %r"
                                % (key, value))
        config = self.config
        result = self.mediator.prepare(query)
        with self._lock:
            self._session_serial += 1
            session_id = "s#%d" % self._session_serial
        session = handler.session = Session(
            session_id, result.document, config, self.clock, self.stats,
            chunk_size=frame.get("chunk_size", config.chunk_size),
            depth=frame.get("depth", config.depth))
        self.stats.bump("sessions_opened")
        self._note("open", session=session_id, peer=handler.address[0])
        return {"ok": True, "session": session_id,
                "root": session.root_wire}

    def _dispatch(self, handler: _Handler, frame: Dict[str, Any]
                  ) -> Tuple[Dict[str, Any], int]:
        """Answer one request frame: ``(reply, fill commands
        answered)``.  Raises what :data:`FAULTS` maps to ``mix:*``."""
        op = frame.get("op")
        session = handler.session
        if op == "status":
            # The admin verb: legal as a connection's *first* frame
            # (no session required -- `repro status` probes this way,
            # and the connection closes after the answer) or
            # mid-session (the dialogue continues).
            self.op_stats["status"].bump("probes")
            return {"ok": True, "status": self.status(
                include_prometheus=bool(frame.get("prometheus")))}, 0
        if session is None:
            if op != "open":
                raise WireError(
                    "first frame must be 'open', got op=%r" % (op,))
            return self._open_session(handler, frame), 0
        return session.dispatch(frame)

    def _reject(self, handler: _Handler, code: str, detail: str) -> None:
        """Refuse a connection at admission (``mix:busy`` /
        ``mix:draining``)."""
        why = code[len("mix:"):]
        self.stats.bump("rejected_" + why)
        self.tracer.emit("server", "reject", reason=why)
        self._error_reply(handler, code, detail)

    def _handle(self, handler: _Handler) -> None:
        """The per-connection thread body."""
        admitted = handler.admitted
        try:
            if admitted is None:
                self._reject(handler, *_DRAINING)
            elif not admitted:
                self._reject(handler, "mix:busy",
                             "server at its %d-session capacity"
                             % self.config.serve_max_sessions)
            else:
                with self.tracer.span("server", "session",
                                      peer=handler.address[0]):
                    self._session_loop(handler)
        finally:
            close_quietly(handler.conn)
            if admitted:
                with self._lock:
                    self._handlers.remove(handler)
                self.stats.bump("sessions_closed")
                self.tracer.emit("server", "close",
                                 session=handler.session_id)

    def _session_loop(self, handler: _Handler) -> None:
        """Serve one admitted connection, a request per turn, until
        the client closes, the server drains or a fault ends it."""
        config = self.config
        while True:
            if self.draining:
                return self._drained(handler)
            handler.conn.settimeout(
                config.serve_idle_timeout_ms / 1000.0)
            try:
                frame = recv_frame(handler.conn,
                                   config.serve_max_frame_bytes)
            except (OSError, WireError) as error:
                return self._fail(handler, "recv", error)
            if frame is None:
                # Clean close at a frame boundary: a polite client --
                # or the end of input drain() wakes an idle session
                # with.
                if self.draining:
                    self._drained(handler)
                return
            trace_context = decode_trace_context(frame)
            op = str(frame.get("op"))
            session = handler.session
            if session is not None \
                    and session.begin(op, trace_context) \
                    and self.tracer.active:
                self.tracer.emit("trace", "adopt",
                                 session=session.session_id,
                                 trace_id=trace_context["id"],
                                 sampled=True)
            started_ms = self.clock.now_ms()
            try:
                with self._request_span(trace_context, op):
                    reply, fills = self._dispatch(handler, frame)
            except Exception as error:  # never take the server down
                return self._fail(handler, "dispatch", error)
            elapsed_ms = self.clock.now_ms() - started_ms
            if handler.session is not None:
                handler.session.in_flight = None
            self._observe_request(handler, op, elapsed_ms, fills)
            try:
                self._reply(handler, reply)
            except (OSError, WireError) as error:
                return self._fail(handler, "send", error)
            # Delivered: these are the counters client-side accounting
            # reconciles against, so they only move once the reply is
            # actually on the wire.  Admin status probes stay out of
            # the session-protocol counters (they have their own
            # probe count) so a monitoring scrape never skews a load
            # run's client/server reconciliation.
            self.op_stats[op].bump("answered")
            if op != "status":
                self.stats.bump("requests")
                if fills:
                    self.stats.bump("fills", fills)
            if op == "close" or handler.session is None:
                # A goodbye, or a sessionless status probe.
                return

    # -- observability -----------------------------------------------------
    def _request_span(self, trace_context: Optional[Dict[str, Any]],
                      op: str) -> ContextManager[Any]:
        """The ``server.request`` span for one dispatch.

        When the request carries a wire trace context, its client
        span id and trace id ride in the span data (``client_parent``
        / ``trace_id``) -- what :func:`~repro.runtime.observability.
        merge_traces` uses to stitch the server's spans under the
        client navigation that caused them.  A context whose
        ``sampled`` bit is off suppresses the span entirely: the
        client's deterministic sampling verdict governs both
        processes.
        """
        if trace_context is not None and not trace_context["sampled"]:
            return contextlib.nullcontext()
        data: Dict[str, Any] = {"op": op}
        if trace_context is not None:
            data["trace_id"] = trace_context["id"]
            if trace_context["parent"] is not None:
                data["client_parent"] = trace_context["parent"]
        return self.tracer.span("server", "request", **data)

    def _observe_request(self, handler: _Handler, op: str,
                         elapsed_ms: float, fills: int) -> None:
        """Per-request operational accounting at dispatch:
        flight-recorder entry, the op's latency bucket and sum, and
        the slow-request log.  (Answered requests and fills are
        counted where the reply is delivered.)"""
        session_id = handler.session_id
        self.recorder.record("server", "request", session=session_id,
                             op=op, elapsed_ms=round(elapsed_ms, 3),
                             fills=fills)
        threshold = self.config.slow_request_ms
        slow = threshold is not None and elapsed_ms >= threshold
        self.op_stats[op].observe(elapsed_ms, slow)
        if slow:
            self._note("slow_request", session=session_id, op=op,
                       elapsed_ms=round(elapsed_ms, 3),
                       threshold_ms=threshold)

    def _fragcache_stats(self) -> Optional[Dict[str, Any]]:
        """The shared fragment store's counters, or None when the
        feature is off (the module stays unimported, per its
        contract)."""
        if not self.config.fragment_cache:
            return None
        from ..runtime.fragcache import shared_store
        store = shared_store()
        stats: Dict[str, Any] = dict(store.stats.snapshot())
        stats["entries"] = store.entry_count()
        return stats

    def status(self, include_prometheus: bool = False
               ) -> Dict[str, Any]:
        """The daemon's live operational picture (the ``mix:status``
        reply body; schema documented in PROTOCOLS.md)."""
        with self._lock:
            handlers = list(self._handlers)
            draining = self._draining
        now_ms = self.clock.now_ms()
        sessions = [
            handler.session.status_row(now_ms, handler.address[0])
            for handler in handlers if handler.session is not None]
        sessions.sort(key=lambda row: str(row["session"]))
        payload: Dict[str, Any] = {
            "draining": draining,
            "address": (list(self.address)
                        if self.address is not None else None),
            "active_sessions": self.active_sessions,
            "server": self.stats.snapshot(),
            "sessions": sessions,
            "fragcache": self._fragcache_stats(),
            "flight_recorder": self.recorder.stats(),
            "incidents": list(self.recorder.incidents),
        }
        if include_prometheus:
            payload["prometheus"] = self.prometheus_text()
        self.tracer.emit("server", "status", sessions=len(sessions),
                         draining=draining)
        return payload

    def _families(self) -> List[Family]:
        """The daemon's metric families, read now from :attr:`stats`
        and the per-op :attr:`op_stats` counters.  A counter or
        histogram series appears once its count is non-zero, and its
        family once it has a series."""
        counts = self.stats.snapshot()
        ops = {op: stats.snapshot() for op, stats in self.op_stats.items()}

        def by_op(field_name: str) -> List[Tuple[Any, int]]:
            return [((("op", op),), snap[field_name])
                    for op, snap in ops.items()]

        counters: Tuple[Tuple[str, str, List[Tuple[Any, int]]], ...] = (
            ("server_fills_total", "Fill commands answered (batch holes "
             "counted individually).", [((), counts["fills"])]),
            ("server_kills_total",
             "Sessions killed by the daemon, by reason.",
             [((("reason", name[:-len("_kills")]),), value)
              for name, value in counts.items() if name.endswith("_kills")]),
            ("server_requests_total", "Requests answered, by op.",
             by_op("answered")),
            ("server_sessions_total",
             "Sessions opened over the daemon's lifetime.",
             [((), counts["sessions_opened"])]),
            ("server_slow_requests_total", "Requests at or over the "
             "slow-request threshold, by op.", by_op("slow")),
            ("server_status_requests_total",
             "Admin status probes answered.",
             [((), ops["status"]["probes"])]),
        )
        families: List[Family] = [
            (name, "counter", help_text, [row for row in rows if row[1]])
            for name, help_text, rows in counters]
        latencies: List[Tuple[Any, Any]] = []
        for op, snap in ops.items():
            buckets = [snap[name] for name in _BUCKET_FIELDS]
            if any(buckets):
                latencies.append(((("op", op),), (
                    _REQUEST_MS_BUCKETS, buckets, snap["ms_sum"])))
        families.append(("server_request_ms", "histogram", "Request "
                         "dispatch latency in milliseconds, by op.",
                         latencies))
        families = [family for family in families if family[3]]
        families.append(("server_lifetime_count", "gauge",
                         "Lifetime daemon counters, by counter name.",
                         [((("counter", name),), value)
                          for name, value in counts.items()]))
        families.append(("server_sessions_active", "gauge",
                         "Currently admitted sessions.",
                         [((), self.active_sessions)]))
        return families

    def prometheus_text(self) -> str:
        """The daemon's Prometheus text exposition, read from its
        counters at scrape time."""
        return render_prometheus(self._families())

    # -- drain -------------------------------------------------------------
    def drain(self, timeout_ms: Optional[float] = None) -> bool:
        """Graceful shutdown: stop accepting, finish in-flight work,
        cancel idle sessions, force-close stragglers.

        ``drain`` itself never writes to a session's connection: it
        sets the flag and ends every connection's *input*.  Each
        handler then notices on its own -- at once if it was parked
        in ``recv``, after sending the reply it owes if it was
        navigating -- and says ``mix:draining`` itself
        (:meth:`_drained`), so the notice can never overtake or
        replace a reply.

        Returns True when every session ended within the grace period
        (``serve_drain_timeout_ms`` by default), False when
        stragglers had to be force-closed.  Idempotent; safe to call
        from a signal handler's deferred path.
        """
        with self._lock:
            already = self._draining
            self._draining = True
            listener = self._listener
            handlers = list(self._handlers)
        if not already:
            self.tracer.emit("server", "drain", phase="begin",
                             in_flight=len(handlers))
            if listener is not None:
                close_quietly(listener)
        grace_ms = (timeout_ms if timeout_ms is not None
                    else self.config.serve_drain_timeout_ms)
        deadline = time.monotonic() + grace_ms / 1000.0
        accept_thread = self._accept_thread
        if accept_thread is not None:
            accept_thread.join(max(0.0, deadline - time.monotonic())
                               + _ACCEPT_POLL_S * 2)
        # Wake sessions parked in recv: shutting the read side down
        # ends their input; a session busy with a request sees the
        # flag once it has replied.
        for handler in handlers:
            try:
                handler.conn.shutdown(socket.SHUT_RD)
            except OSError:
                pass
        clean = True
        for handler in handlers:
            handler.thread.join(max(0.0,
                                    deadline - time.monotonic()))
            if handler.thread.is_alive():
                clean = False
                close_quietly(handler.conn)
        for handler in handlers:
            if handler.thread.is_alive():
                handler.thread.join(1.0)
        drained = self.stats.snapshot()["drained"]
        if already:
            self.tracer.emit("server", "drain", phase="end",
                             clean=clean, drained=drained)
        else:
            self._note("drain", phase="end", clean=clean,
                       drained=drained)
            self.recorder.incident("drain", detail="clean=%s" % clean)
        return clean
