"""A load generator for the mediator session server (BENCH E15).

Drives many concurrent sessions into a running
:class:`~repro.server.daemon.MediatorServer` with mixed navigation
patterns, and reports the numbers the experiment cares about:
sessions/sec, per-navigation round-trip latency (p50/p95/p99),
admission outcomes, and fairness (how much one saturating client can
hurt everyone else's tail).

Clients speak raw wire frames (one :func:`~repro.server.wire.exchange`
per request) rather than the full buffered client stack: the generator
measures the *server*, so the client side stays as thin and
predictable as possible.

Patterns (assigned round-robin over the session index, so runs are
deterministic in composition):

``drill``   open, then follow the first hole of every reply -- the
            paper's drill-down browse.
``scan``    open, then breadth-first over the frontier -- the
            materialize-ish sweep.
``burst``   open, then one pipelined ``fill_batch`` over the whole
            frontier each round -- the PR 3 batching client.
``greedy``  a saturating client: like ``scan`` but with many more
            navigation rounds per session.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import SourceError
from ..runtime.locks import make_lock
from ..server.client import fetch_status
from ..server.wire import (
    ReplyError,
    WireError,
    checked,
    exchange,
    wire_holes,
)

__all__ = ["SessionOutcome", "LoadReport", "run_session", "run_load",
           "percentile", "PATTERNS"]

PATTERNS = ("drill", "scan", "burst", "greedy")


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) by nearest-rank on sorted values;
    0.0 for an empty series."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1,
                max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[index]


class SessionOutcome:
    """What one generated session experienced."""

    def __init__(self, index: int, pattern: str) -> None:
        self.index = index
        self.pattern = pattern
        self.ok = False
        #: "" | a ``mix:*`` code | "connect" | "closed" | "protocol" |
        #: a socket exception's class name
        self.error = ""
        self.opened = False       # the open request was answered ok
        self.fills = 0
        self.requests = 0         # ok replies received (any op)
        self.latencies_ms: List[float] = []  # per navigation round trip

    def as_dict(self) -> Dict[str, Any]:
        return {"index": self.index, "pattern": self.pattern,
                "ok": self.ok, "error": self.error,
                "opened": self.opened,
                "fills": self.fills,
                "requests": self.requests,
                "mean_latency_ms": (
                    sum(self.latencies_ms) / len(self.latencies_ms)
                    if self.latencies_ms else 0.0)}


class LoadReport:
    """The aggregate of one load run."""

    def __init__(self, outcomes: List[SessionOutcome],
                 wall_s: float,
                 server_correlation: Optional[Dict[str, Any]] = None
                 ) -> None:
        self.outcomes = outcomes
        self.wall_s = wall_s
        self.latencies_ms = [latency for outcome in outcomes
                             for latency in outcome.latencies_ms]
        #: client-vs-server counter reconciliation (see
        #: :func:`run_load`); ``{"available": False}`` when the
        #: daemon's status endpoint could not be probed
        self.server_correlation = (server_correlation
                                   if server_correlation is not None
                                   else {"available": False})

    @property
    def completed(self) -> int:
        return sum(1 for o in self.outcomes if o.ok)

    @property
    def rejected_busy(self) -> int:
        return sum(1 for o in self.outcomes if o.error == "mix:busy")

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes
                   if not o.ok and o.error != "mix:busy")

    @property
    def sessions_per_sec(self) -> float:
        return self.completed / self.wall_s if self.wall_s > 0 else 0.0

    def latency_ms(self, q: float) -> float:
        return percentile(self.latencies_ms, q)

    def mean_latency_by_pattern(self) -> Dict[str, float]:
        """Per-pattern mean navigation latency -- the fairness view:
        compare the polite patterns' tail with and without a greedy
        neighbour."""
        sums: Dict[str, Tuple[float, int]] = {}
        for outcome in self.outcomes:
            if not outcome.latencies_ms:
                continue
            total, count = sums.get(outcome.pattern, (0.0, 0))
            sums[outcome.pattern] = (
                total + sum(outcome.latencies_ms),
                count + len(outcome.latencies_ms))
        return {pattern: total / count
                for pattern, (total, count) in sorted(sums.items())}

    def as_dict(self) -> Dict[str, Any]:
        return {
            "sessions": len(self.outcomes),
            "completed": self.completed,
            "rejected_busy": self.rejected_busy,
            "failed": self.failed,
            "wall_s": round(self.wall_s, 4),
            "sessions_per_sec": round(self.sessions_per_sec, 2),
            "navigations": len(self.latencies_ms),
            "latency_ms": {
                "p50": round(self.latency_ms(0.50), 3),
                "p95": round(self.latency_ms(0.95), 3),
                "p99": round(self.latency_ms(0.99), 3),
            },
            "mean_latency_by_pattern": {
                pattern: round(value, 3)
                for pattern, value in
                self.mean_latency_by_pattern().items()},
            "server_correlation": self.server_correlation,
        }


# ----------------------------------------------------------------------
# one session
# ----------------------------------------------------------------------

def run_session(host: str, port: int, query: str, outcome:
                SessionOutcome, rounds: int,
                timeout_ms: float) -> SessionOutcome:
    """Drive one session to completion, recording per-navigation
    round-trip latencies into ``outcome``."""
    pattern = outcome.pattern
    if pattern == "greedy":
        rounds = rounds * 8
    try:
        sock = socket.create_connection(
            (host, port), timeout=timeout_ms / 1000.0)
    except OSError:
        outcome.error = "connect"
        return outcome

    def ask(request: Dict[str, Any]) -> Dict[str, Any]:
        reply = checked(exchange(sock, request, timeout_ms)[0],
                        request["op"])
        outcome.requests += 1
        return reply

    try:
        frontier: List[int] = [ask({"op": "open",
                                    "query": query})["root"]]
        outcome.opened = True
        for _ in range(rounds):
            if not frontier:
                break
            if pattern == "burst" and len(frontier) > 1:
                request: Dict[str, Any] = {
                    "op": "fill_batch", "holes": list(frontier),
                    "speculate": 0}
                asked = len(frontier)
                frontier = []
            else:
                hole = (frontier.pop(0) if pattern != "drill"
                        else frontier.pop())
                request = {"op": "fill", "hole": hole}
                asked = 1
            started = time.perf_counter()
            reply = ask(request)
            outcome.latencies_ms.append(
                (time.perf_counter() - started) * 1000.0)
            outcome.fills += asked
            if "replies" in reply:
                for pair in reply["replies"]:
                    frontier.extend(wire_holes(pair[1]))
            else:
                frontier.extend(wire_holes(reply.get("fragments")))
        try:
            ask({"op": "close"})
        except SourceError:
            # The navigation is done; a refused goodbye (a server
            # that started draining) does not fail the session.
            pass
        outcome.ok = True
    except ReplyError as err:
        outcome.error = err.code
    except (WireError, LookupError, TypeError):
        # Not a frame, or a frame of the wrong shape.
        outcome.error = "protocol"
    except SourceError:
        # checked()'s only other verdict: EOF where a reply was due.
        outcome.error = "closed"
    except OSError as err:
        outcome.error = type(err).__name__
    finally:
        sock.close()
    return outcome


# ----------------------------------------------------------------------
# the fleet
# ----------------------------------------------------------------------

def _probe(host: str, port: int,
           timeout_ms: float) -> Optional[Dict[str, Any]]:
    """The daemon's ``mix:status``; None when it cannot be reached
    or answers with anything but a status object."""
    try:
        return fetch_status(host, port, timeout_ms)
    except (OSError, SourceError):
        return None


_CORRELATED = ("sessions_opened", "requests", "fills")


def _settled_status(host: str, port: int, timeout_ms: float,
                    settle_s: float = 2.0
                    ) -> Optional[Dict[str, Any]]:
    """A status snapshot taken once the daemon's counters go quiet.

    The daemon bumps its delivered-request counters *after* a reply
    hits the wire, so a probe fired the instant the last client
    socket closes can catch a handler mid-bump.  Re-probe until two
    consecutive snapshots agree (bounded by ``settle_s``)."""
    status = _probe(host, port, timeout_ms)
    if status is None:
        return None
    deadline = time.monotonic() + settle_s
    while time.monotonic() < deadline:
        # The generator measures a live daemon on the wall clock; a
        # real (bounded) sleep between probes is the point here.
        time.sleep(0.05)  # lint: allow=X101
        again = _probe(host, port, timeout_ms)
        if again is None:
            return status
        if again.get("server") == status.get("server"):
            return again
        status = again
    return status


def _correlate(before: Optional[Dict[str, Any]],
               after: Optional[Dict[str, Any]],
               outcomes: List[SessionOutcome]) -> Dict[str, Any]:
    """Reconcile the fleet's client-observed counters against the
    daemon's lifetime counter deltas over the run.

    Mismatches are *reported*, never silently dropped: a reply the
    server delivered but the client timed out on is exactly the kind
    of disagreement this section exists to surface.
    """
    client = {
        "sessions_opened": sum(1 for o in outcomes if o.opened),
        "requests": sum(o.requests for o in outcomes),
        "fills": sum(o.fills for o in outcomes),
    }
    if before is None or after is None:
        return {"available": False, "client": client}
    before_server = before.get("server") or {}
    after_server = after.get("server") or {}
    delta = {}
    for key in _CORRELATED:
        try:
            delta[key] = int(after_server.get(key, 0)) \
                - int(before_server.get(key, 0))
        except (TypeError, ValueError):
            delta[key] = None
    mismatches = [
        "%s: client %s != server %s"
        % (key, client[key], delta[key])
        for key in _CORRELATED if delta[key] != client[key]]
    return {"available": True, "client": client,
            "server_delta": delta, "mismatches": mismatches,
            "reconciled": not mismatches}


def run_load(host: str, port: int, query: str,
             sessions: int = 100, concurrency: int = 16,
             rounds: int = 4, timeout_ms: float = 10000.0,
             patterns: Sequence[str] = PATTERNS,
             correlate: bool = True) -> LoadReport:
    """Drive ``sessions`` sessions with ``concurrency`` worker
    threads; patterns rotate round-robin over the session index.

    With ``correlate`` (the default) the daemon's ``mix:status``
    counters are snapshotted before and after the fleet and the
    deltas reconciled against what the clients observed
    (``report.server_correlation``)."""
    outcomes = [SessionOutcome(i, patterns[i % len(patterns)])
                for i in range(sessions)]
    cursor = {"next": 0}
    cursor_lock = make_lock("loadgen.cursor")

    def worker() -> None:
        while True:
            with cursor_lock:
                index = cursor["next"]
                if index >= len(outcomes):
                    return
                cursor["next"] = index + 1
            run_session(host, port, query, outcomes[index],
                        rounds, timeout_ms)

    before = (_probe(host, port, timeout_ms)
              if correlate else None)
    started = time.perf_counter()
    threads = [threading.Thread(target=worker, name="loadgen-%d" % i,
                                daemon=True)
               for i in range(max(1, concurrency))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - started
    correlation: Optional[Dict[str, Any]] = None
    if correlate:
        after = _settled_status(host, port, timeout_ms)
        correlation = _correlate(before, after, outcomes)
    return LoadReport(outcomes, wall_s, correlation)
