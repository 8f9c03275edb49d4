"""Per-session server state: hole table, budgets, deadlines.

One TCP connection to the daemon is one session, and so is one
in-process ``connect_remote`` client.  A session owns:

* a :class:`~repro.client.remote.NavigableLXPServer` exporting the
  prepared query's virtual answer as fragments;
* a :class:`HoleTable` mapping those fragments' in-process hole
  identifiers (which embed live document pointers) to session-scoped
  wire integers and back;
* consumption counters against the session's navigation/byte budgets.

The deadline machinery is a document proxy
(:class:`DeadlineDocument`): the handler arms it at request start and
every navigation the request triggers checks the injected clock, so a
runaway navigation is cut mid-request -- deterministically under a
:class:`~repro.testing.faults.FakeClock`.
"""

from __future__ import annotations

import socket
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..buffer.holes import Fragments, fragment_wire_size
from ..client.remote import NavigableLXPServer
from ..errors import ReproError, TransientSourceError
from ..navigation.interface import NavigableDocument
from ..runtime.config import EngineConfig
from ..runtime.counters import Counters
from ..runtime.resilience import SYSTEM_CLOCK, Clock
from .wire import (MalformedFrameError, WireError, encode_fragments,
                   wire_int)
from ..runtime.locks import make_lock

__all__ = ["HoleTable", "SessionBudgetError", "RequestDeadlineError",
           "DeadlineDocument", "Session", "FAULTS", "fault"]

#: what an op answers: the reply frame and the fill commands it
#: answered (what the daemon's delivered-``fills`` counter charges)
Reply = Tuple[Dict[str, Any], int]


class SessionBudgetError(TransientSourceError):
    """A session exhausted its navigation or byte budget.  Transient
    from the client fleet's point of view: a fresh session starts
    with a fresh budget."""


class RequestDeadlineError(TransientSourceError):
    """A request's server-side navigation work overran the
    per-request deadline."""


#: Every way a request can fail, declared once (the PROTOCOLS.md
#: fault table is generated from this).  One row is ``(phase,
#: exception, kill reason, wire code, detail)``: ``phase`` is where in
#: the request cycle the exception surfaced (``recv`` a frame,
#: ``dispatch`` it, ``send`` the reply); within a phase the first row
#: whose exception matches wins (:func:`fault`).  The session dies
#: either way; the daemon counts a kill reason under
#: ``ServerStats.<reason>_kills`` with an incident dump (``None``: a
#: rejected query, the client's own mistake, counted under
#: ``query_rejects``); the wire code and its ``detail`` template go out
#: as a best-effort last frame (``None``: the peer is not reading).
FAULTS: Tuple[Tuple[str, type, Optional[str], Optional[str], str],
              ...] = (
    ("recv", socket.timeout, "idle", "mix:idle",
     "no complete frame within %(idle_ms).0fms"),
    ("recv", WireError, "protocol", "mix:protocol", "%(error)s"),
    ("recv", OSError, "disconnect", None, ""),
    ("dispatch", RequestDeadlineError, "deadline", "mix:deadline",
     "%(error)s"),
    ("dispatch", SessionBudgetError, "budget", "mix:budget",
     "%(error)s"),
    ("dispatch", WireError, "protocol", "mix:protocol", "%(error)s"),
    # A bad query or a source-side failure: this session's problem,
    # reported and closed; the server lives on.
    ("dispatch", ReproError, None, "mix:query", "%(type)s: %(error)s"),
    ("dispatch", Exception, "internal", "mix:error",
     "%(type)s: %(error)s"),
    ("send", socket.timeout, "stalled", None, ""),
    # The server produced an unsendable (oversized) reply: its own
    # bug, charged to this session, not the peer's.
    ("send", WireError, "internal", "mix:error", "%(error)s"),
    ("send", OSError, "disconnect", None, ""),
)


def fault(phase: str, error: BaseException, idle_ms: float = 0.0
          ) -> Tuple[Optional[str], Optional[str], str]:
    """``error``'s :data:`FAULTS` row in ``phase``: ``(kill reason,
    wire code, detail)``, the detail template filled in."""
    for row_phase, exception, reason, code, detail in FAULTS:
        if row_phase == phase and isinstance(error, exception):
            return reason, code, detail % {
                "error": error, "type": type(error).__name__,
                "idle_ms": idle_ms}
    raise error


class HoleTable:
    """Bidirectional hole-id <-> wire-integer map for one session.

    The in-process hole identifiers of
    :class:`~repro.client.remote.NavigableLXPServer` embed live
    document pointers -- unserializable and unforgeable-by-accident,
    but useless on a wire.  The table interns each hole the session
    ships and resolves the integers clients send back.  Interning is
    idempotent (one hole, one wire id) so a batched reply that answers
    a hole introduced earlier in the same reply stays consistent.

    Guarded by its own lock: the handler thread interns while drain
    or stats paths may be reading the size.
    """

    def __init__(self) -> None:
        self._to_wire: Dict[object, int] = {}
        self._to_hole: Dict[int, object] = {}
        self._serial = 0
        self._lock = make_lock("server.holes")

    def intern(self, hole_id: object) -> int:
        """The wire integer for ``hole_id`` (minted on first use)."""
        with self._lock:
            wire_id = self._to_wire.get(hole_id)
            if wire_id is None:
                self._serial += 1
                wire_id = self._serial
                self._to_wire[hole_id] = wire_id
                self._to_hole[wire_id] = hole_id
            return wire_id

    def resolve(self, wire_id: object) -> object:
        """The in-process hole id behind a client-sent integer.

        Unknown or ill-typed ids are a protocol violation (the client
        can only learn ids from fragments this session shipped).
        """
        if not wire_int(wire_id):
            raise MalformedFrameError(
                "hole id must be an integer, got %r" % (wire_id,))
        with self._lock:
            try:
                return self._to_hole[wire_id]
            except KeyError:
                raise MalformedFrameError(
                    "unknown hole id %d for this session"
                    % wire_id) from None

    def __len__(self) -> int:
        with self._lock:
            return len(self._to_hole)


class DeadlineDocument(NavigableDocument):
    """A navigation proxy that enforces a per-request deadline.

    The session runs a request's navigation inside ``with deadline:``,
    which arms the deadline on entry and disarms it on exit; every
    navigation in between compares the clock against the armed
    deadline (``deadline_ms=None``: never armed).  The proxy is only
    ever driven by one thread at a time, but arming, disarming and
    the checks keep the state in one slot so a misuse is at worst a
    late cut, never a crash.
    """

    def __init__(self, document: NavigableDocument,
                 deadline_ms: Optional[float] = None,
                 clock: Optional[Clock] = None) -> None:
        self.document = document
        self.deadline_ms = deadline_ms
        self.clock: Clock = clock if clock is not None else SYSTEM_CLOCK
        self._deadline_at: Optional[float] = None

    def __enter__(self) -> "DeadlineDocument":
        """Start the request clock."""
        if self.deadline_ms is not None:
            self._deadline_at = self.clock.now_ms() + self.deadline_ms
        return self

    def __exit__(self, *exc: object) -> None:
        self._deadline_at = None

    def _check(self) -> None:
        deadline_at = self._deadline_at
        if deadline_at is not None \
                and self.clock.now_ms() > deadline_at:
            raise RequestDeadlineError(
                "request overran its %.0fms navigation deadline"
                % self.deadline_ms)

    def root(self) -> object:
        self._check()
        return self.document.root()

    def down(self, pointer: object) -> Optional[object]:
        self._check()
        return self.document.down(pointer)

    def right(self, pointer: object) -> Optional[object]:
        self._check()
        return self.document.right(pointer)

    def fetch(self, pointer: object) -> str:
        self._check()
        return self.document.fetch(pointer)

    def __getattr__(self, attr: str) -> Any:
        return getattr(self.document, attr)


class Session:
    """One client's dialogue with its exported view, server side.

    Created by the daemon's handler on a successful ``open``, or by
    ``connect_remote`` behind a :class:`~repro.server.wire.FramePipe`;
    owns the exported view, the hole table, the request deadline and
    the budget counters, and answers the session-level ops of the
    protocol (:attr:`OPS`).  One thread at a time drives it -- the
    daemon's handler, or the client holding its channel's lock -- and
    that serializes every entry into the exported query.  The budget
    check happens before each navigation request, so a reply that
    crosses the budget is still delivered and the *next* request is
    refused.
    """

    def __init__(self, session_id: str, document: NavigableDocument,
                 config: EngineConfig, clock: Clock,
                 server_stats: Counters,
                 chunk_size: Optional[int] = None,
                 depth: Optional[int] = None) -> None:
        #: the session's name (``connect_remote`` renames its session
        #: after the channel, once that registers as ``remote#N``)
        self.session_id = session_id
        self.server_stats = server_stats
        self._deadline = DeadlineDocument(
            document, config.serve_request_deadline_ms, clock)
        self._exporter = NavigableLXPServer(
            self._deadline, chunk_size=chunk_size, depth=depth)
        self._holes = HoleTable()
        #: the wire id of the answer's root hole (the ``open`` reply)
        self.root_wire = self._holes.intern(
            self._exporter.get_root().hole_id)
        self.max_fills = config.serve_session_max_fills
        self.max_bytes = config.serve_session_max_bytes
        #: navigation budget consumed (answered fill commands)
        self.fills = 0
        #: byte budget consumed (fragment wire volume shipped)
        self.bytes_shipped = 0
        #: requests received (any op)
        self.requests = 0
        #: server-clock reading at ``open`` (for status age reporting)
        self.opened_at_ms = clock.now_ms()
        #: the op currently being dispatched (handler-thread written;
        #: status readers see at worst a stale op name)
        self.in_flight: Optional[str] = None
        #: the wire trace context last adopted for this session
        self.trace_context: Optional[Dict[str, Any]] = None

    def begin(self, op: str,
              trace_context: Optional[Dict[str, Any]]) -> bool:
        """Note one arriving request.  True when it is the first to
        carry a *sampled* trace context -- the one adoption worth an
        event; a sampled-out trace leaves no record server-side."""
        self.requests += 1
        self.in_flight = op
        if trace_context is None:
            return False
        adopted = self.trace_context is None and trace_context["sampled"]
        self.trace_context = trace_context
        return adopted

    # -- the ops: frame -> (reply, fill commands answered) -----------------
    def _check_budget(self) -> None:
        """Refuse a navigation request once a budget is exhausted."""
        if self.max_fills is not None and self.fills >= self.max_fills:
            raise SessionBudgetError(
                "session %s exhausted its %d-fill navigation budget"
                % (self.session_id, self.max_fills))
        if self.max_bytes is not None \
                and self.bytes_shipped >= self.max_bytes:
            raise SessionBudgetError(
                "session %s exhausted its %d-byte ship budget"
                % (self.session_id, self.max_bytes))

    def _ship(self, fragments: Fragments) -> List[Any]:
        """Charge one answered hole to the budgets and encode it."""
        self.fills += 1
        self.bytes_shipped += fragment_wire_size(fragments)
        return encode_fragments(fragments, self._holes.intern)

    def fill(self, frame: Dict[str, Any]) -> Reply:
        self._check_budget()
        hole_id = self._holes.resolve(frame.get("hole"))
        with self._deadline:
            fragments = self._exporter.fill(hole_id)
        return {"ok": True, "fragments": self._ship(fragments)}, 1

    def fill_batch(self, frame: Dict[str, Any]) -> Reply:
        self._check_budget()
        holes = frame.get("holes")
        if not isinstance(holes, list) or not holes:
            raise WireError("fill_batch frame must carry a "
                            "non-empty 'holes' array")
        speculate = frame.get("speculate", 0)
        if not wire_int(speculate) or speculate < 0:
            raise WireError("speculate must be a non-negative "
                            "integer")
        hole_ids = [self._holes.resolve(hole) for hole in holes]
        with self._deadline:
            replies = self._exporter.fill_batch(hole_ids, speculate)
        # Speculated replies ride along unasked: the command count is
        # what the client sent.  (Its channel also counts the
        # speculated replies it receives, as its buffer does.)
        return {"ok": True, "replies": [
            [self._holes.intern(hole_id), self._ship(fragments)]
            for hole_id, fragments in replies]}, len(holes)

    def ping(self, frame: Dict[str, Any]) -> Reply:
        return {"ok": True, "pong": True}, 0

    def close(self, frame: Dict[str, Any]) -> Reply:
        return {"ok": True, "closed": True}, 0

    def stats(self, frame: Dict[str, Any]) -> Reply:
        """The session's consumption, its exporter's live stats and
        the daemon's lifetime counters (snapshot-based, safe while
        traffic is live)."""
        return {"ok": True, "stats": {
            "session": self.session_id,
            "requests": self.requests,
            "fills": self.fills,
            "bytes_shipped": self.bytes_shipped,
            "holes_interned": len(self._holes),
            "exporter": self._exporter.stats.snapshot(),
        }, "server": self.server_stats.snapshot()}, 0

    #: the session-level ops of the wire protocol, by ``op`` name
    #: (``open`` and ``status`` are the connection's: see
    #: :data:`repro.server.daemon.OPS`)
    OPS: Dict[str, Callable[["Session", Dict[str, Any]], Reply]] = {
        "fill": fill, "fill_batch": fill_batch, "ping": ping,
        "stats": stats, "close": close}

    def dispatch(self, frame: Dict[str, Any]) -> Reply:
        """Answer one request frame through :attr:`OPS`.  Raises what
        :data:`FAULTS` maps to ``mix:*``."""
        op = frame.get("op")
        if op == "open":
            raise WireError("session already open")
        answer = self.OPS.get(op) if isinstance(op, str) else None
        if answer is None:
            raise WireError("unknown op %r" % (op,))
        return answer(self, frame)

    def answer(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """The reply to one request frame from a peer with no daemon
        in between (a :class:`~repro.server.wire.FramePipe`): the op's
        reply, or the error frame its ``dispatch`` :data:`FAULTS` row
        names -- behind which the peer abandons the session, as it
        would one the daemon killed."""
        try:
            return self.dispatch(frame)[0]
        except Exception as error:
            _, code, detail = fault("dispatch", error)
            return {"ok": False, "error": code, "detail": detail}

    # -- status ------------------------------------------------------------
    def status_row(self, now_ms: float, peer: str) -> Dict[str, Any]:
        """One row of the daemon's per-session status table."""
        fills_left = (None if self.max_fills is None
                      else max(0, self.max_fills - self.fills))
        bytes_left = (None if self.max_bytes is None
                      else max(0, self.max_bytes - self.bytes_shipped))
        return {
            "session": self.session_id,
            "age_ms": max(0.0, now_ms - self.opened_at_ms),
            "requests": self.requests,
            "fills": self.fills,
            "bytes_shipped": self.bytes_shipped,
            "budget_remaining": {"fills": fills_left,
                                 "bytes": bytes_left},
            "in_flight": self.in_flight,
            "trace_id": (self.trace_context or {}).get("id"),
            "peer": peer,
        }
