"""The execution context: the spine threaded through the tower.

One :class:`ExecutionContext` is created per :meth:`MIXMediator.
prepare` and handed down through plan building into every lazy
operator; buffers and remote channels register their stats objects
with it.  It carries exactly four things:

* the frozen :class:`~repro.runtime.config.EngineConfig`,
* the :class:`~repro.runtime.cache.CacheManager` holding every
  operator cache of the query under one budget,
* a :class:`Tracer` whose span/event callbacks see each navigation
  crossing the layers (mediator, lazy operators, sources, channel),
  now with causal span ids linking the crossings into one tree,
* the stats registry: every seam's counters by ``(kind, name)``, and
  the query's own source navigation counters.

``QueryResult.stats()`` aggregates the context into a single report:
source navigations, per-cache hit/miss/eviction counts, and -- for
remote sessions -- channel messages/bytes.  The metric series
(:meth:`ExecutionContext.metrics_snapshot`,
:meth:`ExecutionContext.metrics_prometheus`) are read from the same
counters when scraped: no metric store exists beside them.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from typing import (Any, Callable, ContextManager, Dict, Iterator,
                    List, Optional, Tuple, TYPE_CHECKING)

if TYPE_CHECKING:  # import cycle: resilience imports this module
    from .resilience import Clock

from .cache import CacheManager
from .config import EngineConfig
from .counters import Counters
from .observability import (Family, TraceEvent, render_prometheus,
                            render_snapshot)
from .locks import make_lock

__all__ = ["TraceEvent", "Tracer", "ExecutionContext"]


class Tracer:
    """Span/event hooks for the execution tower.

    Subscribing a callback makes every layer's :meth:`emit` call it
    with a :class:`TraceEvent`; with ``record=True`` events are also
    kept in :attr:`events`.  An idle tracer (no subscribers, not
    recording) is near-free: instrumented layers check :attr:`active`
    before building events.

    The tracer is safe under concurrent emitters and subscribers:
    concurrent sessions emit through the same instance a reporter
    reads, so the subscriber list and the event record are guarded by
    a lock.  Callbacks are invoked *outside* the lock (a callback may
    itself navigate, which may emit).

    **Causal spans.**  :meth:`span` mints a span id, remembers the
    enclosing span on a thread-local stack, and stamps both onto the
    begin/end events; :meth:`emit` stamps the current span as the
    point event's ``parent_id``.  One client navigation therefore
    yields a *tree* of spans down through mediator -> lazy operators
    -> buffer -> channel -> source (reconstructable with
    :func:`~repro.runtime.observability.build_span_tree`).  The span
    stack is per thread: every span of one navigation opens on the
    thread that navigates.

    ``clock`` supplies the event timestamps; tests inject a
    :class:`~repro.testing.faults.FakeClock` so traces are
    deterministic.  The default reads the system monotonic clock.

    **Trace identity & sampling.**  :attr:`trace_id` names the whole
    causal trace (one id per client session; minted lazily by
    :meth:`ensure_trace_id`); it travels on the LXP wire so client
    and server exports can be merged into one forest.  :meth:`sample`
    applies the deterministic hash decision of
    :func:`~repro.runtime.observability.sample_trace` and flips
    :attr:`sampled`; an unsampled tracer reports :attr:`active` False
    even while recording, so sampling bounds the record-mode cost
    without touching any emit site.

    :attr:`active` is a plain attribute -- every instrumented layer
    reads it once per navigation -- refreshed wherever one of its
    inputs changes: the :attr:`record` and :attr:`sampled` setters and
    :meth:`subscribe`/:meth:`unsubscribe`.
    """

    def __init__(self, record: bool = False,
                 clock: Optional["Clock"] = None,
                 trace_id: Optional[str] = None) -> None:
        self._callbacks: List[Callable[[TraceEvent], None]] = []
        self._record = record
        self.events: List[TraceEvent] = []
        self.trace_id = trace_id
        self._sampled = True
        self._lock = make_lock("trace.tracer")
        self._clock = clock
        self._span_ids = itertools.count(1)
        self._tls = threading.local()
        #: whether emitting is observable at all:
        #: ``sampled and (record or subscribers)``
        self.active = record

    def _refresh_active(self) -> None:
        """Recompute :attr:`active`; the caller holds the lock."""
        self.active = self._sampled and self.configured

    @property
    def record(self) -> bool:
        """Whether events are kept in :attr:`events`."""
        return self._record

    @record.setter
    def record(self, value: bool) -> None:
        with self._lock:
            self._record = value
            self._refresh_active()

    @property
    def sampled(self) -> bool:
        """The sampling verdict (True until :meth:`sample` says no)."""
        return self._sampled

    @sampled.setter
    def sampled(self, value: bool) -> None:
        with self._lock:
            self._sampled = value
            self._refresh_active()

    @property
    def configured(self) -> bool:
        """Whether anything asked for tracing (pre-sampling).

        Distinct from :attr:`active`: a recording tracer whose trace
        was sampled *out* is configured but not active.  The client
        only mints and ships trace context on the wire when this is
        true, so the default-off path stays byte-identical.
        """
        return self._record or bool(self._callbacks)

    def ensure_trace_id(self) -> str:
        """The trace id, minted on first use.

        The lazy ``uuid`` import is deliberate: the default path never
        calls this, and the E18 subprocess proof asserts the module
        stays unimported.
        """
        if self.trace_id is None:
            import uuid
            self.trace_id = uuid.uuid4().hex[:16]
        return self.trace_id

    def sample(self, rate: float) -> bool:
        """Apply the deterministic sampling decision for ``rate``.

        Ensures a trace id, hashes it through
        :func:`~repro.runtime.observability.sample_trace`, records the
        verdict in :attr:`sampled`, and returns it.
        """
        from .observability import sample_trace
        self.sampled = sample_trace(self.ensure_trace_id(), rate)
        return self.sampled

    def _now(self) -> float:
        clock = self._clock
        if clock is None:
            from .resilience import SYSTEM_CLOCK
            clock = self._clock = SYSTEM_CLOCK
        return clock.now_ms()

    # -- span context ------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def current_span(self) -> Optional[int]:
        """The innermost open span on this thread (None outside)."""
        stack = getattr(self._tls, "stack", None)
        return stack[-1] if stack else None

    def subscribe(self, callback: Callable[[TraceEvent], None]) -> None:
        """Register a callback invoked on every event."""
        with self._lock:
            self._callbacks.append(callback)
            self._refresh_active()

    @contextmanager
    def subscribed(self, callback: Callable[[TraceEvent], None]
                   ) -> Iterator[Callable[[TraceEvent], None]]:
        """Subscribe ``callback`` for the duration of a block.

        The exception-safe pairing of :meth:`subscribe` and
        :meth:`unsubscribe`: the callback is removed on the way out
        even when the block raises, so a failing test or exporter can
        never leak its subscription (and then trip the strict
        double-unsubscribe check elsewhere).
        """
        self.subscribe(callback)
        try:
            yield callback
        finally:
            self.unsubscribe(callback)

    def unsubscribe(self,
                    callback: Callable[[TraceEvent], None]) -> None:
        """Remove a previously subscribed callback.

        Raises ``ValueError`` when the callback was never subscribed
        (or was already removed) -- a silent no-op would mask the
        double-unsubscribe bugs this method exists to prevent.
        """
        with self._lock:
            try:
                self._callbacks.remove(callback)
            except ValueError:
                raise ValueError(
                    "callback %r is not subscribed" % (callback,)
                ) from None
            self._refresh_active()

    def emit(self, layer: str, event: str, **data: object) -> None:
        """Publish one point event to subscribers (and the record).

        The event is stamped with the enclosing span (``parent_id``),
        the clock reading, and the emitting thread.
        """
        if not self.active:
            return
        self._publish(TraceEvent(
            layer, event, data,
            parent_id=self.current_span(),
            ts_ms=self._now(),
            thread=threading.get_ident()))

    def _publish(self, record: TraceEvent) -> None:
        with self._lock:
            if self._record:
                self.events.append(record)
            callbacks = list(self._callbacks)
        for callback in callbacks:
            callback(record)

    @contextmanager
    def span(self, layer: str, name: str,
             **data: object) -> Iterator["Tracer"]:
        """A begin/end event pair around a block.

        Mints a span id, stamps it (plus the enclosing span as
        ``parent_id``) on the ``<name>.begin``/``<name>.end`` events,
        and makes it the current span for the block so nested spans
        and point events become its children.  The ``.end`` event is
        emitted even when the block raises.  Idle tracers skip all of
        it -- no id is minted, nothing is pushed.
        """
        if not self.active:
            yield self
            return
        parent = self.current_span()
        span_id = next(self._span_ids)
        thread = threading.get_ident()
        self._publish(TraceEvent(
            layer, name + ".begin", dict(data),
            span_id=span_id, parent_id=parent,
            ts_ms=self._now(), thread=thread))
        stack = self._stack()
        stack.append(span_id)
        try:
            yield self
        finally:
            stack.pop()
            self._publish(TraceEvent(
                layer, name + ".end", dict(data),
                span_id=span_id, parent_id=parent,
                ts_ms=self._now(), thread=thread))


class ExecutionContext:
    """Config + caches + tracing for one prepared query.

    Create one with :meth:`create`; the mediator does so per
    ``prepare()`` and threads it through ``build_virtual_document``
    into every operator, so the query's whole cache footprint lives
    (and is bounded) in one place.

    One query's operators, caches and source counters are driven by
    one thread at a time, so none of them takes a lock.  The one place
    several threads can enter a query is an exported answer, and
    :class:`~repro.client.remote.NavigableLXPServer` serializes its
    fills there.
    """

    def __init__(self, config: Optional[EngineConfig] = None,
                 tracer: Optional[Tracer] = None) -> None:
        self.config = config if config is not None else EngineConfig()
        self.caches = CacheManager(budget=self.config.cache_budget,
                                   enabled=self.config.cache_enabled)
        self.tracer = tracer if tracer is not None else Tracer()
        #: the one stats registry: ``(kind, name) -> Counters`` for
        #: every buffer, channel, resilience seam and fragment store
        #: that reports through this context (kinds and their report
        #: shapes are the rows of ``_SECTIONS``)
        self.stats: Dict[Tuple[str, str], Counters] = {}
        #: guards the registry: buffers and channels register from
        #: whichever thread opens them (concurrent sessions over one
        #: mediator), and names are minted from registry sizes
        self._registry_lock = make_lock("context.registry")
        #: kind -> the last serial :meth:`register` minted; shared, with
        #: the lock, by every context that adopts this one
        self._serials: Dict[str, int] = {}
        #: per-kind serial numbers behind :meth:`mint_operator_name`
        self._operator_serials: Dict[str, int] = {}
        #: registered source document -> this query's NavCounters for
        #: it (filled by the mediator from its source meters); a lazy
        #: ``source`` operator over such a document counts here.  On
        #: the mediator's own context the values are the source
        #: meters themselves, which sum every query's navigations.
        self.navigations: Dict[Any, Any] = {}

    @classmethod
    def create(cls, config: Optional[EngineConfig] = None,
               tracer: Optional[Tracer] = None,
               **overrides: object) -> "ExecutionContext":
        """A fresh context, optionally overriding config fields::

            ctx = ExecutionContext.create(cache_enabled=False)
        """
        config = config if config is not None else EngineConfig()
        if overrides:
            config = config.replace(**overrides)
        return cls(config=config, tracer=tracer)

    # -- tracing -----------------------------------------------------------
    def trace(self, layer: str, event: str, **data: object) -> None:
        """Emit one event through the context's tracer."""
        # lint: allow=E002 -- the forwarding seam; call sites are checked
        self.tracer.emit(layer, event, **data)

    def span(self, layer: str, name: str,
             **data: object) -> ContextManager["Tracer"]:
        """A tracing span (contextmanager) through the tracer."""
        # lint: allow=E002 -- the forwarding seam; call sites are checked
        return self.tracer.span(layer, name, **data)

    def mint_operator_name(self, kind: str) -> str:
        """A fresh ``Kind#N`` label for one built operator -- serials
        are per kind and per context, so names are deterministic in
        plan-build order.  One thread builds a query's plan, so this
        takes no lock."""
        serial = self._operator_serials.get(kind, 0) + 1
        self._operator_serials[kind] = serial
        return "%s#%d" % (kind, serial)

    # -- the stats registry ------------------------------------------------
    def register(self, kind: str, name: str,
                 counters: Counters) -> str:
        """Attach ``counters`` for aggregated reporting under
        ``(kind, name)`` and return the name.

        A ``name`` ending in ``#`` is a serial prefix: the entry is
        stored as ``name + N``, N being one more than the kind's
        current population (``remote#1``, ``client-buffer#3``) or than
        the last serial any context sharing this one's serials minted,
        whichever is larger.  A lone query's names are its own
        population's; two queries on one mediator never share a name,
        so never a metrics series.  Mint and insert happen under one
        lock, so concurrent sessions opening channels never collide.
        """
        with self._registry_lock:
            if name.endswith("#"):
                serial = 1 + max(self._serials.get(kind, 0),
                                 sum(1 for k, _ in self.stats
                                     if k == kind))
                self._serials[kind] = serial
                name += str(serial)
            self.stats[(kind, name)] = counters
            return name

    def adopt(self, other: "ExecutionContext") -> None:
        """Share another context's registered counters, its serials and
        the lock guarding both (the mediator seeds each per-query
        context with the session-level wrapper registrations, so its
        queries mint serial names from one sequence)."""
        self._registry_lock = other._registry_lock
        with self._registry_lock:
            self._serials = other._serials
            self.stats.update(other.stats)

    def _snapshots(self) -> Dict[str, Dict[str, Dict[str, Any]]]:
        """``kind -> name -> snapshot`` over the whole registry, names
        sorted.  The registry is copied under its lock (concurrent
        sessions may be registering while a report is taken) and the
        counters are read outside it, through ``snapshot()`` -- seams
        may still be live."""
        with self._registry_lock:
            entries = sorted(self.stats.items())
        by_kind: Dict[str, Dict[str, Dict[str, Any]]] = {}
        for (kind, name), counters in entries:
            by_kind.setdefault(kind, {})[name] = counters.snapshot()
        return by_kind

    # -- metrics -----------------------------------------------------------
    def _families(self) -> List[Family]:
        """The context's metric families, read from its counters now:
        the operator caches, the source navigations and every
        registered seam (the series columns of ``_SECTIONS``).  Read
        per scrape and dropped after it, so there are as many series
        as counters, however long the mediator lives."""
        caches = self.caches.as_dict()["caches"]
        families: List[Family] = [
            ("cache_" + field_name, "gauge", "",
             [((("cache", name),), counts[field_name])
              for name, counts in caches.items()])
            for field_name in ("hits", "misses", "evictions")]
        navigations: List[Tuple[Any, int]] = []
        for document, counters in list(self.navigations.items()):
            snap = counters.snapshot()
            navigations.extend(
                ((("command", command), ("source", document.name)),
                 snap[field_name])
                for command, field_name in _COMMANDS)
        families.append(("source_navigations_total", "counter", "",
                         navigations))
        by_kind = self._snapshots()
        for kind, _, _, _, _, label, series in _SECTIONS:
            snaps = by_kind.get(kind, {})
            families.extend(
                (series_name,
                 "counter" if series_name.endswith("_total") else "gauge",
                 "", [(((label, name),), snap[field_name])
                      for name, snap in snaps.items()])
                for series_name, field_name in series)
        return families

    def metrics_snapshot(self) -> dict:
        """Every series as plain dicts (see
        :func:`~repro.runtime.observability.render_snapshot`), read
        from the counters."""
        return render_snapshot(self._families())

    def metrics_prometheus(self) -> str:
        """The same series in Prometheus text exposition format."""
        return render_prometheus(self._families())

    # -- reporting ---------------------------------------------------------
    def stats_report(self) -> dict:
        """Caches, buffers, and channels in one plain-dict view."""
        report = {"config": self.config.as_dict(),
                  "caches": self.caches.as_dict()}
        by_kind = self._snapshots()
        for kind, title, totals, rows_key, row_fields, _, _ \
                in _SECTIONS:
            snaps = by_kind.get(kind)
            if not snaps or title is None:
                continue
            if totals is None:
                totals = tuple(next(iter(snaps.values())))
            body: Dict[str, Any] = {
                total: sum(snap[total] for snap in snaps.values())
                for total in totals}
            if rows_key is not None:
                rows = {name: (snap if row_fields is None
                               else {f: snap[f] for f in row_fields})
                        for name, snap in snaps.items()}
                if rows_key:
                    body[rows_key] = rows
                else:
                    body.update(rows)
            report[title] = body
        return report


#: The report/series table, one row per registry kind, in report
#: order: ``(kind, report key, summed fields, rows key, row fields,
#: series label, (series, field) pairs)``.  The summed fields head
#: the section (None = every declared field); the per-entry rows sit
#: under the rows key ("" = directly in the section, None = no rows)
#: and show the row fields (None = the whole snapshot).  A kind with
#: no report key is scraped only.  Each series reads one field of
#: every entry of its kind, labelled with the entry's name: a counter
#: when its name ends in ``_total``, else a gauge.
_SECTIONS: Tuple[Tuple[str, Optional[str], Optional[Tuple[str, ...]],
                       Optional[str], Optional[Tuple[str, ...]], str,
                       Tuple[Tuple[str, str], ...]], ...] = (
    ("fragcache", "fragcache", None, None, None, "store", ()),
    ("buffer", "buffers", (), "", None, "buffer",
     (("buffer_navigations", "navigations"),
      ("buffer_hits", "hits"),
      ("buffer_hole_fills", "fills"))),
    ("resilience", "resilience",
     ("retries", "giveups", "degraded", "breaker_opens"),
     "per_source", None, "source",
     (("resilience_retries", "retries"),
      ("resilience_giveups", "giveups"),
      ("resilience_degraded", "degraded"))),
    ("channel", "channels", ("messages", "bytes_transferred"),
     "per_channel", ("messages", "bytes_transferred", "virtual_ms"),
     "channel",
     (("channel_messages", "messages"),
      ("channel_bytes", "bytes_transferred"),
      ("channel_round_trips_total", "messages"),
      ("channel_commands_total", "commands"))),
    ("lxp", None, None, None, None, "source",
     (("lxp_fills_total", "fills"),
      ("lxp_elements_shipped_total", "elements_shipped"),
      ("lxp_holes_shipped_total", "holes_shipped"))),
)

#: ``source_navigations_total``'s ``command`` label per
#: :class:`~repro.navigation.counting.NavCounters` field
_COMMANDS = (("d", "down"), ("r", "right"), ("f", "fetch"),
             ("select", "select"))
