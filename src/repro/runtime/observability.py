"""The observability layer: metrics, span trees, and exporters.

The paper's central claims are quantitative -- a lazy mediator
translates each client navigation into a bounded (or unbounded) number
of source navigations (Definition 2), and the buffer/LXP layer trades
round trips for fragment granularity.  This module turns every run
into evidence for (or against) those claims:

* :func:`render_snapshot` / :func:`render_prometheus` -- the one
  metrics renderer: metric families given as data (name, kind, help,
  labelled rows) become a plain-dict snapshot or Prometheus text.
  The rows are read from counters at scrape time -- an
  :class:`~repro.runtime.context.ExecutionContext`'s registered
  counters, the daemon's ``ServerStats`` and per-op request
  counters; no metric store exists beside them.
* :class:`SpanNode` / :func:`build_span_tree` -- reconstruct the
  causal tree of one (or many) client navigations from a
  :class:`~repro.runtime.context.Tracer` event stream: client span ->
  operator spans -> buffer fills -> channel round trips -> source
  commands.  The tree is what the browsability profiler
  (:mod:`repro.navigation.profiler`) consumes.
* Exporters -- newline-delimited JSON (:func:`export_jsonl`), the
  Chrome ``trace_event`` format loadable in ``chrome://tracing`` and
  Perfetto (:func:`export_chrome_trace`).
* :data:`EVENT_NAMES` -- the stable event-name contract.  The golden
  navigation traces and the documented span taxonomy in
  ``docs/PROTOCOLS.md`` both key off these names; a tier-1 test
  asserts code, docs, and goldens agree, so a rename cannot land
  silently.

The one event record, :class:`TraceEvent`, is defined here -- what a
:class:`~repro.runtime.context.Tracer` emits, what :func:`load_jsonl`
reads back and what :func:`merge_traces` returns.  Nothing here imports
the tracer: exporters and the tree builder read only the record's
public fields (``layer``, ``event``, ``data``, ``span_id``,
``parent_id``, ``ts_ms``, ``thread``), which keeps the module free of
import cycles with :mod:`repro.runtime.context`.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import json
import os
import time
import zlib
from dataclasses import dataclass, field
from typing import (Any, Deque, Dict, Iterable, List, Optional,
                    Sequence, Tuple)

from .locks import make_lock

__all__ = [
    "Family", "render_snapshot", "render_prometheus",
    "SpanNode", "SpanForest", "build_span_tree",
    "export_jsonl", "export_chrome_trace",
    "EVENT_NAMES", "contract_violations", "span_name_of",
    "FlightRecorder", "TraceEvent", "load_jsonl", "merge_traces",
    "sample_trace",
]


# ----------------------------------------------------------------------
# The event record
# ----------------------------------------------------------------------

@dataclass
class TraceEvent:
    """One crossing of a layer boundary.

    ``span_id``/``parent_id`` place the event in the causal span tree
    of the navigation that produced it: ``*.begin``/``*.end`` pairs
    carry their span's id, point events carry the enclosing span in
    ``parent_id``.  ``ts_ms`` is the tracer clock's reading (a
    :class:`~repro.testing.faults.FakeClock` in tests makes it
    deterministic) and ``thread`` the emitting thread's identity (a
    live thread id from a tracer, a normalized ``c<n>``/``s<n>`` token
    after :func:`merge_traces`).

    The span fields deliberately stay out of :meth:`__str__`: the
    golden navigation traces under ``tests/golden/`` compare the
    string form, which remains exactly ``layer.event key=value ...``.
    """

    layer: str
    event: str
    data: Dict[Any, Any] = field(default_factory=dict)
    span_id: Optional[int] = None
    parent_id: Optional[int] = None
    ts_ms: Optional[float] = None
    thread: Optional[object] = None

    def __str__(self) -> str:
        # Keyed on str(key): heterogeneous data dicts (int and str
        # keys mixed) must render, not raise -- sorting the raw items
        # compares unlike types on Python 3.9.  All-string dicts sort
        # exactly as before, keeping the golden traces stable.
        detail = " ".join(
            "%s=%r" % kv
            for kv in sorted(self.data.items(),
                             key=lambda kv: str(kv[0])))
        return ("%s.%s %s" % (self.layer, self.event, detail)).rstrip()

    def to_dict(self) -> Dict[str, Any]:
        """The stable serialization shape of one event (what the JSONL
        exporter writes, one object per line)."""
        return {
            "layer": self.layer,
            "event": self.event,
            "data": {str(k): v for k, v in self.data.items()},
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "ts_ms": self.ts_ms,
            "thread": self.thread,
        }


# ----------------------------------------------------------------------
# The event-name contract
# ----------------------------------------------------------------------

#: Every event name each layer may emit, as a stable contract.  Span
#: layers list the *span* names (the wire events are ``<name>.begin``
#: and ``<name>.end``); point layers list the event names verbatim.
#: ``docs/PROTOCOLS.md`` documents this same table and
#: ``tests/test_event_contract.py`` asserts the two never diverge --
#: the golden traces under ``tests/golden/`` depend on these names.
EVENT_NAMES: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "spans": {
        "client": ("down", "right", "fetch", "select"),
        "operator": ("first_binding", "next_binding", "attribute",
                     "v_down", "v_right", "v_fetch", "v_select"),
        "buffer": ("fill", "prefetch_fill"),
        "mediator": ("prepare",),
        "pushdown": ("compile", "execute"),
        "fragcache": ("fill",),
        "server": ("session", "request"),
    },
    "events": {
        "mediator": ("register_source", "prepare.begin", "prepare.end",
                     "optimize", "optimizer.discarded_result",
                     "static_analysis"),
        "source": ("d", "r", "f", "select"),
        "channel": ("round_trip",),
        "resilience": ("failure", "retry", "short_circuit",
                       "breaker_open", "deadline_exceeded",
                       "degraded"),
        "pushdown": ("decision",),
        "fragcache": ("decision", "hit", "miss", "store",
                      "invalidate", "wait", "complete", "adopt"),
        "server": ("listen", "accept", "reject", "open", "close",
                   "kill", "drain", "status", "incident",
                   "slow_request"),
        "trace": ("sample", "adopt"),
    },
}


def _contracted_names() -> Dict[str, set]:
    """layer -> full set of legal wire event names."""
    names: Dict[str, set] = {}
    for layer, spans in EVENT_NAMES["spans"].items():
        bucket = names.setdefault(layer, set())
        for span in spans:
            bucket.add(span + ".begin")
            bucket.add(span + ".end")
    for layer, events in EVENT_NAMES["events"].items():
        names.setdefault(layer, set()).update(events)
    return names


def contract_violations(events: Iterable) -> List[str]:
    """Event names outside :data:`EVENT_NAMES`, as ``layer.event``
    strings (empty when the stream conforms)."""
    contract = _contracted_names()
    violations = []
    for event in events:
        legal = contract.get(event.layer)
        if legal is None or event.event not in legal:
            name = "%s.%s" % (event.layer, event.event)
            if name not in violations:
                violations.append(name)
    return violations


def span_name_of(event: Any) -> Optional[str]:
    """The span name of a ``*.begin``/``*.end`` event, else None."""
    if event.span_id is None:
        return None
    base, _, suffix = event.event.rpartition(".")
    if suffix in ("begin", "end") and base:
        return base
    return None


# ----------------------------------------------------------------------
# Trace sampling
# ----------------------------------------------------------------------

#: hash-space granularity of the sampling decision: rates are
#: effectively quantized to 1/10000.
_SAMPLE_BUCKETS = 10000


def sample_trace(trace_id: str, rate: float) -> bool:
    """The deterministic head-sampling decision for one trace.

    Hashes the trace id (CRC32, the repo's convention for
    deterministic decisions -- retry jitter and fragment-store
    sharding use the same trick) into one of ``_SAMPLE_BUCKETS``
    buckets and keeps the trace when its bucket falls under ``rate``.
    The decision is a pure function of ``(trace_id, rate)``: every
    process that sees the same trace id -- the client that minted it
    and the daemon that adopted it off the wire -- reaches the same
    verdict without coordination, so a trace is always recorded
    end-to-end or not at all.
    """
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    bucket = zlib.crc32(trace_id.encode("utf-8")) % _SAMPLE_BUCKETS
    return bucket < int(rate * _SAMPLE_BUCKETS)


# ----------------------------------------------------------------------
# Metrics: families rendered from counters
# ----------------------------------------------------------------------

#: The labels of one series: ``(label, value)`` string pairs in
#: label-name order.
Labels = Tuple[Tuple[str, str], ...]

#: One metric family as data, read from counters at scrape time:
#: ``(name, kind, help, rows)``.  ``kind`` is ``counter``, ``gauge``
#: or ``histogram``; an empty ``help`` renders no HELP line.  A row is
#: ``(labels, value)``, its labels unique within the family.  A
#: histogram row's value is ``(bounds, counts, sum)``: the finite
#: upper bounds, the per-bucket counts (the ``+Inf`` bucket last; the
#: observation count is their sum) and the sum of the observations.
Family = Tuple[str, str, str, Sequence[Tuple[Labels, Any]]]


def render_snapshot(families: Iterable[Family]) -> Dict[str, Any]:
    """Every family's series as plain data, families by name:
    ``{name: {"type": kind, "series": {"label=value,...": value}}}``
    (a histogram's value is ``{"buckets", "sum", "count"}``)."""
    snapshot: Dict[str, Any] = {}
    for name, kind, _, rows in sorted(families):
        series: Dict[str, Any] = {}
        for labels, value in sorted(rows):
            if kind == "histogram":
                bounds, counts, total = value
                value = {"buckets": dict(zip(
                    [str(b) for b in bounds] + ["+Inf"], counts)),
                    "sum": total, "count": sum(counts)}
            series[",".join("%s=%s" % pair for pair in labels)] = value
        snapshot[name] = {"type": kind, "series": series}
    return snapshot


def render_prometheus(families: Iterable[Family]) -> str:
    """The families in Prometheus text exposition format: sorted by
    name, each its HELP line (when it has help), its TYPE line, then
    its samples by label; a histogram's ``_bucket`` samples are
    cumulative, ``le`` after the row's labels."""
    lines: List[str] = []
    for name, kind, help_text, rows in sorted(families):
        metric = _prometheus_name(name)
        if help_text:
            lines.append("# HELP %s %s" % (metric, _escape_help(help_text)))
        lines.append("# TYPE %s %s" % (metric, kind))
        for labels, value in sorted(rows):
            if kind == "histogram":
                lines.extend(_prometheus_histogram(metric, labels, *value))
            else:
                lines.append("%s%s %s" % (metric, _prometheus_labels(labels),
                                          _format_number(value)))
    return "\n".join(lines) + ("\n" if lines else "")


def _prometheus_name(name: str) -> str:
    cleaned = "".join(c if (c.isalnum() or c == "_") else "_"
                      for c in name)
    return "repro_" + cleaned


def _format_number(value: object) -> str:
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    return str(value)


def _escape_help(text: str) -> str:
    """HELP-line escaping per the text exposition format: backslash
    and line feed only."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    """Label-value escaping per the text exposition format:
    backslash, double quote, and line feed."""
    return (value.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n"))


def _prometheus_labels(labels: Labels) -> str:
    if not labels:
        return ""
    return "{%s}" % ",".join(
        '%s="%s"' % (name, _escape_label_value(value))
        for name, value in labels)


def _prometheus_histogram(metric: str, labels: Labels,
                          bounds: Sequence[float], counts: Sequence[int],
                          total: float) -> List[str]:
    lines = []
    cumulative = 0
    for bound, count in zip([_format_number(b) for b in bounds]
                            + ["+Inf"], counts):
        cumulative += count
        lines.append("%s_bucket%s %d"
                     % (metric, _prometheus_labels(labels + (("le", bound),)),
                        cumulative))
    lines.append("%s_sum%s %s" % (metric, _prometheus_labels(labels),
                                  _format_number(total)))
    lines.append("%s_count%s %d" % (metric, _prometheus_labels(labels),
                                    cumulative))
    return lines


# ----------------------------------------------------------------------
# Span trees
# ----------------------------------------------------------------------

@dataclass
class SpanNode:
    """One reconstructed span: a begin/end pair plus everything that
    happened causally inside it."""

    span_id: int
    parent_id: Optional[int]
    layer: str
    name: str
    data: dict = field(default_factory=dict)
    begin_ms: Optional[float] = None
    end_ms: Optional[float] = None
    thread: Optional[int] = None
    children: List["SpanNode"] = field(default_factory=list)
    #: point events (source commands, channel round trips, ...) whose
    #: causal parent is this span
    events: List[object] = field(default_factory=list)

    @property
    def duration_ms(self) -> Optional[float]:
        if self.begin_ms is None or self.end_ms is None:
            return None
        return self.end_ms - self.begin_ms

    def walk(self) -> Iterable["SpanNode"]:
        """This span and every descendant span, preorder."""
        yield self
        for child in self.children:
            for node in child.walk():
                yield node

    def leaf_events(self, layer: Optional[str] = None) -> List[object]:
        """Point events in this subtree, optionally layer-filtered."""
        found = []
        for node in self.walk():
            for event in node.events:
                if layer is None or event.layer == layer:
                    found.append(event)
        return found


@dataclass
class SpanForest:
    """The reconstructed span trees of one trace.

    ``roots`` are spans with no parent (one per client navigation in a
    typical run); ``orphans`` are spans whose ``parent_id`` never
    appeared in the stream -- a propagation bug when non-empty;
    ``stray_events`` are point events emitted outside any span (the
    mediator's registration/prepare events are the legitimate case).
    """

    roots: List[SpanNode] = field(default_factory=list)
    orphans: List[SpanNode] = field(default_factory=list)
    spans: Dict[int, SpanNode] = field(default_factory=dict)
    stray_events: List[object] = field(default_factory=list)

    def events(self, layer: Optional[str] = None) -> List[object]:
        """Every in-tree point event, optionally layer-filtered."""
        found = []
        for root in self.roots + self.orphans:
            found.extend(root.leaf_events(layer))
        return found


def build_span_tree(events: Iterable) -> SpanForest:
    """Reconstruct the causal span forest from a trace event stream.

    ``*.begin`` events open spans, ``*.end`` events close them, and
    every other event is attached as a point event to the span named
    by its ``parent_id``.  The input order only matters for the
    ordering of children; parentage is carried entirely by ids, so
    interleaved streams from worker threads reconstruct correctly.
    """
    forest = SpanForest()
    for event in events:
        name = span_name_of(event)
        if name is not None and event.event.endswith(".begin"):
            node = SpanNode(event.span_id, event.parent_id,
                            event.layer, name, dict(event.data),
                            begin_ms=event.ts_ms,
                            thread=event.thread)
            forest.spans[event.span_id] = node
        elif name is not None:
            node = forest.spans.get(event.span_id)
            if node is not None:
                node.end_ms = event.ts_ms
        else:
            parent = (forest.spans.get(event.parent_id)
                      if event.parent_id is not None else None)
            if parent is not None:
                parent.events.append(event)
            else:
                forest.stray_events.append(event)
    for node in forest.spans.values():
        if node.parent_id is None:
            forest.roots.append(node)
        else:
            parent = forest.spans.get(node.parent_id)
            if parent is None:
                forest.orphans.append(node)
            else:
                parent.children.append(node)
    return forest


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------

def _open_sink(sink: Any, mode: str = "w") -> Tuple[Any, bool]:
    if hasattr(sink, "write"):
        return sink, False
    return open(sink, mode), True


def export_jsonl(events: Iterable, sink: Any) -> int:
    """Dump a trace as newline-delimited JSON, one event per line.

    ``sink`` is a path or a writable file object.  Events serialize
    through their stable ``to_dict()`` shape; non-JSON-native data
    values are stringified rather than dropped.  Returns the number of
    events written.
    """
    handle, owned = _open_sink(sink)
    written = 0
    try:
        for event in events:
            handle.write(json.dumps(event.to_dict(), sort_keys=True,
                                    default=repr))
            handle.write("\n")
            written += 1
    finally:
        if owned:
            handle.close()
    return written


def export_chrome_trace(events: Sequence, sink: Any) -> int:
    """Dump a trace in Chrome ``trace_event`` JSON (the array-of-events
    object form), loadable in ``chrome://tracing`` and Perfetto.

    Span begin/end events become ``B``/``E`` duration events; point
    events become ``i`` instants.  Thread identities are remapped to
    small integers in first-seen order, so exports are deterministic
    for deterministic runs.  Timestamps are microseconds as the format
    requires (the tracer records milliseconds).  Returns the number of
    trace records written.
    """
    tids: Dict[object, int] = {}

    def tid_of(event: Any) -> int:
        return tids.setdefault(event.thread, len(tids) + 1)

    records = []
    for event in events:
        ts_us = round((event.ts_ms or 0.0) * 1000.0, 3)
        args = {str(k): (v if isinstance(v, (str, int, float, bool,
                                             type(None))) else repr(v))
                for k, v in sorted(event.data.items(),
                                   key=lambda kv: str(kv[0]))}
        name = span_name_of(event)
        base = {"cat": event.layer, "pid": 1, "tid": tid_of(event),
                "ts": ts_us, "args": args}
        if name is not None:
            base["name"] = "%s.%s" % (event.layer, name)
            base["ph"] = "B" if event.event.endswith(".begin") else "E"
            base["args"]["span_id"] = event.span_id
            if event.parent_id is not None:
                base["args"]["parent_id"] = event.parent_id
        else:
            base["name"] = "%s.%s" % (event.layer, event.event)
            base["ph"] = "i"
            base["s"] = "t"
            if event.parent_id is not None:
                base["args"]["parent_id"] = event.parent_id
        records.append(base)
    payload = {"traceEvents": records, "displayTimeUnit": "ms"}
    handle, owned = _open_sink(sink)
    try:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    finally:
        if owned:
            handle.close()
    return len(records)


# ----------------------------------------------------------------------
# The flight recorder
# ----------------------------------------------------------------------

class FlightRecorder:
    """A bounded ring of the last N operational entries, always on.

    The daemon's black box: unlike the tracer (armed only when
    someone asks for a trace) the flight recorder runs
    unconditionally, so when a session dies there is *always* a
    recent history to dump.  Recording is one lock acquire plus a
    ``deque`` append onto a ``maxlen`` ring -- cheap enough to sit on
    the request path of every dispatch.

    :meth:`incident` freezes the ring into an incident record: kept
    in the bounded :attr:`incidents` history, and -- when
    ``incident_dir`` is configured -- dumped as a JSONL file (one
    header object naming the reason/session, then one entry per
    line, newest last).  The daemon calls it on every session kill,
    on unhandled handler errors, and once on drain.

    ``clock`` is any object with ``now_ms()`` (tests inject a
    :class:`~repro.testing.faults.FakeClock`); the default reads the
    system monotonic clock.
    """

    def __init__(self, capacity: int = 256,
                 incident_dir: Optional[str] = None,
                 max_incidents: int = 32,
                 clock: Optional[Any] = None) -> None:
        self.capacity = max(1, int(capacity))
        self.incident_dir = incident_dir
        self._clock = clock
        self._lock = make_lock("observability.recorder")
        self._ring: Deque[Dict[str, Any]] = collections.deque(
            maxlen=self.capacity)
        self._recorded = 0
        self._serials = itertools.count(1)
        #: bounded history of incident summaries (no event payloads)
        self.incidents: Deque[Dict[str, Any]] = collections.deque(
            maxlen=max(1, int(max_incidents)))

    def _now_ms(self) -> float:
        clock = self._clock
        if clock is not None:
            return float(clock.now_ms())
        return time.monotonic() * 1000.0

    def record(self, layer: str, event: str, **data: object) -> None:
        """Append one entry to the ring (evicting the oldest)."""
        entry: Dict[str, Any] = {"layer": layer, "event": event,
                                 "data": data,
                                 "ts_ms": self._now_ms()}
        with self._lock:
            self._ring.append(entry)
            self._recorded += 1

    def snapshot(self) -> List[Dict[str, Any]]:
        """The ring's entries, oldest first (shallow copies)."""
        with self._lock:
            return [dict(entry) for entry in self._ring]

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {"capacity": self.capacity,
                    "size": len(self._ring),
                    "recorded": self._recorded,
                    "incidents": len(self.incidents)}

    def incident(self, reason: str, session: Optional[str] = None,
                 detail: str = "") -> Dict[str, Any]:
        """Freeze the ring into an incident record (and maybe a file).

        Returns the full record including the frozen ``events``; the
        bounded :attr:`incidents` history keeps only the summary.
        ``path`` is the JSONL dump's location, or None when no
        ``incident_dir`` is configured (or the write failed -- an
        incident dump must never take the daemon down with it).
        """
        with self._lock:
            serial = next(self._serials)
            events = [dict(entry) for entry in self._ring]
        record: Dict[str, Any] = {
            "incident": serial,
            "reason": str(reason),
            "session": session,
            "detail": str(detail),
            "ts_ms": self._now_ms(),
            "path": None,
            "events": events,
        }
        if self.incident_dir is not None:
            slug = "".join(c if c.isalnum() else "-"
                           for c in str(reason)) or "unknown"
            path = os.path.join(
                self.incident_dir,
                "incident-%03d-%s.jsonl" % (serial, slug))
            try:
                os.makedirs(self.incident_dir, exist_ok=True)
                with open(path, "w") as handle:
                    header = {key: value
                              for key, value in record.items()
                              if key not in ("events", "path")}
                    header["events"] = len(events)
                    handle.write(json.dumps(header, sort_keys=True,
                                            default=repr) + "\n")
                    for entry in events:
                        handle.write(json.dumps(entry, sort_keys=True,
                                                default=repr) + "\n")
                record["path"] = path
            except OSError:
                record["path"] = None
        summary = {key: record[key]
                   for key in ("incident", "reason", "session",
                               "detail", "ts_ms", "path")}
        with self._lock:
            self.incidents.append(summary)
        return record


# ----------------------------------------------------------------------
# Cross-process trace merging
# ----------------------------------------------------------------------

def load_jsonl(source: Any) -> List[TraceEvent]:
    """Load a JSONL trace export (the :func:`export_jsonl` format)
    back into :class:`TraceEvent` objects.

    ``source`` is a path or a readable file object.  Blank lines are
    skipped; missing fields default (old or hand-built exports stay
    loadable).
    """
    handle, owned = _open_sink(source, mode="r")
    records: List[TraceEvent] = []
    try:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            payload = json.loads(line)
            records.append(TraceEvent(
                layer=str(payload.get("layer", "")),
                event=str(payload.get("event", "")),
                data=dict(payload.get("data") or {}),
                span_id=payload.get("span_id"),
                parent_id=payload.get("parent_id"),
                ts_ms=payload.get("ts_ms"),
                thread=payload.get("thread")))
    finally:
        if owned:
            handle.close()
    return records


def merge_traces(client_events: Iterable[TraceEvent],
                 server_events: Iterable[TraceEvent]
                 ) -> List[TraceEvent]:
    """Join a client and a server trace into one causal stream.

    Each process mints span ids from its own counter, so the two id
    spaces collide; the server's ids are remapped above the client's
    maximum.  The stitch is the wire trace context: a
    ``server.request`` span that adopted one carries the client's
    issuing span id as ``client_parent`` in its span data, and every
    such span is re-parented under that client span -- after which
    :func:`build_span_tree` over the merged stream reconstructs one
    forest whose client navigations *contain* the server work they
    caused.  Thread identities are normalized to ``c<n>``/``s<n>``
    tokens in first-seen order, so merged exports of deterministic
    runs are byte-stable.
    """
    # Copies: the merge rewrites ids and threads in place.
    client = [dataclasses.replace(event, data=dict(event.data))
              for event in client_events]
    server = [dataclasses.replace(event, data=dict(event.data))
              for event in server_events]
    client_ids = {record.span_id for record in client
                  if isinstance(record.span_id, int)}
    offset = max(client_ids | {record.parent_id for record in client
                               if isinstance(record.parent_id, int)},
                 default=0)

    mapping: Dict[int, int] = {}

    def remap(old: Optional[int]) -> Optional[int]:
        if not isinstance(old, int):
            return old
        if old not in mapping:
            mapping[old] = offset + len(mapping) + 1
        return mapping[old]

    threads: Dict[Tuple[str, object], str] = {}

    def thread_token(prefix: str, raw: object) -> str:
        key = (prefix, raw)
        token = threads.get(key)
        if token is None:
            ordinal = sum(1 for existing in threads
                          if existing[0] == prefix) + 1
            token = threads[key] = "%s%d" % (prefix, ordinal)
        return token

    merged: List[TraceEvent] = []
    for record in client:
        record.thread = thread_token("c", record.thread)
        merged.append(record)
    for record in server:
        record.span_id = remap(record.span_id)
        client_parent = record.data.get("client_parent")
        if isinstance(client_parent, int) \
                and client_parent in client_ids:
            record.parent_id = client_parent
        else:
            record.parent_id = remap(record.parent_id)
        record.thread = thread_token("s", record.thread)
        merged.append(record)
    return merged
