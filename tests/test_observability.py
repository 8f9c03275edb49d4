"""Tests for the observability layer: causal spans, the metrics
renderer and the series a context reads from its counters, the
exporters, and cross-thread span propagation.

The acceptance anchor: one client ``fetch`` on the Fig. 9 join view
must yield a span tree whose leaf events reconcile *exactly* with the
``CountingDocument`` meters and the channel stats -- the trace is a
faithful, not approximate, account of the navigation cascade.
"""

import io
import json

import pytest

from repro.bench import (ALLBOOKS_VIEW_NAME, CHEAP_DB_BOOKS_QUERY,
                         allbooks_plan, two_bookstores)
from repro.buffer import TreeLXPServer
from repro.client.remote import ChannelStats
from repro.mediator import MIXMediator
from repro.navigation import MaterializedDocument, materialize
from repro.runtime import (
    EngineConfig,
    ExecutionContext,
    TraceEvent,
    Tracer,
    build_span_tree,
    export_chrome_trace,
    export_jsonl,
)
from repro.runtime.observability import render_prometheus, render_snapshot
from repro.testing import FakeClock
from repro.wrappers import XMLFileWrapper, buffered
from repro.xtree import Tree

from .fixtures import fig4_plan, homes_source, schools_source

HOMES_XML = ("<homes>"
             "<home><addr>La Jolla</addr><zip>91220</zip></home>"
             "<home><addr>El Cajon</addr><zip>91223</zip></home>"
             "</homes>")
SCHOOLS_XML = ("<schools>"
               "<school><dir>Smith</dir><zip>91220</zip></school>"
               "<school><dir>Bar</dir><zip>91220</zip></school>"
               "<school><dir>Hart</dir><zip>91223</zip></school>"
               "</schools>")


class TestTracerSpans:
    def test_span_mints_ids_and_links_parents(self):
        tracer = Tracer(record=True, clock=FakeClock())
        with tracer.span("client", "fetch"):
            with tracer.span("operator", "v_fetch", op="Join#1"):
                tracer.emit("source", "f", source="homesSrc")
        begin_outer, begin_inner, point, end_inner, end_outer = \
            tracer.events
        assert begin_outer.event == "fetch.begin"
        assert begin_outer.parent_id is None
        assert begin_inner.parent_id == begin_outer.span_id
        assert point.parent_id == begin_inner.span_id
        assert end_inner.span_id == begin_inner.span_id
        assert end_outer.span_id == begin_outer.span_id

    def test_span_timestamps_come_from_injected_clock(self):
        clock = FakeClock()
        tracer = Tracer(record=True, clock=clock)
        with tracer.span("client", "down"):
            clock.sleep_ms(7)
        begin, end = tracer.events
        assert begin.ts_ms == 0.0
        assert end.ts_ms == 7.0
        forest = build_span_tree(tracer.events)
        (root,) = forest.roots
        assert root.duration_ms == 7.0

    def test_inactive_tracer_emits_nothing(self):
        tracer = Tracer()
        with tracer.span("client", "down"):
            tracer.emit("source", "d")
        assert tracer.events == []
        assert tracer.current_span() is None


class TestSubscribed:
    """Satellite: the leak-proof subscription context manager."""

    def test_subscribed_sees_events_then_detaches(self):
        tracer = Tracer()
        seen = []
        with tracer.subscribed(seen.append):
            assert tracer.active
            tracer.emit("source", "d")
        assert not tracer.active
        tracer.emit("source", "r")  # dropped: no subscribers
        assert [e.event for e in seen] == ["d"]

    def test_subscribed_detaches_on_exception(self):
        tracer = Tracer()
        seen = []
        with pytest.raises(RuntimeError):
            with tracer.subscribed(seen.append):
                raise RuntimeError("boom")
        assert not tracer.active
        # ... and the strict unsubscribe check confirms it is gone:
        with pytest.raises(ValueError):
            tracer.unsubscribe(seen.append)


class TestTraceEventStr:
    """Satellite: non-sortable mixed-type data keys (Python 3.9)."""

    def test_mixed_type_keys_render(self):
        event = TraceEvent("buffer", "fill", {1: "a", "b": 2})
        assert str(event) == "buffer.fill 1='a' b=2"

    def test_string_keys_sort_as_before(self):
        event = TraceEvent("source", "d", {"b": 1, "a": 2})
        assert str(event) == "source.d a=2 b=1"

    def test_to_dict_is_stable_and_json_ready(self):
        event = TraceEvent("source", "d", {1: "a"}, span_id=3,
                           parent_id=2, ts_ms=1.5, thread=9)
        payload = event.to_dict()
        assert payload == {
            "layer": "source", "event": "d", "data": {"1": "a"},
            "span_id": 3, "parent_id": 2, "ts_ms": 1.5, "thread": 9,
        }
        json.dumps(payload)  # must not raise


class TestRenderer:
    """The one metrics renderer: families as data, one snapshot and
    one exposition from the same rows."""

    FAMILIES = [
        ("navs", "counter", "", [((("source", "a"),), 4)]),
        ("depth", "gauge", "", [((), 7)]),
        ("bytes", "histogram", "", [((), ((10, 100), [1, 1, 1], 5055.0))]),
    ]

    def test_snapshot_of_counter_gauge_histogram(self):
        snap = render_snapshot(self.FAMILIES)
        assert list(snap) == ["bytes", "depth", "navs"]
        assert snap["navs"] == {"type": "counter",
                                "series": {"source=a": 4}}
        assert snap["depth"] == {"type": "gauge", "series": {"": 7}}
        assert snap["bytes"] == {"type": "histogram", "series": {"": {
            "buckets": {"10": 1, "100": 1, "+Inf": 1},
            "sum": 5055.0, "count": 3}}}

    def test_prometheus_exposition(self):
        text = render_prometheus([
            ("source_navigations_total", "counter", "",
             [((("command", "d"), ("source", "homesSrc")), 2)]),
            ("channel_message_bytes", "histogram", "",
             [((), ((64, 256), [0, 1, 0], 100.0))])])
        assert '# TYPE repro_source_navigations_total counter' in text
        assert ('repro_source_navigations_total{command="d",'
                'source="homesSrc"} 2' in text)
        # cumulative buckets + +Inf
        assert 'le="64"} 0' in text
        assert 'le="256"} 1' in text
        assert 'le="+Inf"} 1' in text
        assert 'repro_channel_message_bytes_sum 100' in text
        assert 'repro_channel_message_bytes_count 1' in text


class TestExporters:
    def _traced(self):
        tracer = Tracer(record=True, clock=FakeClock())
        with tracer.span("client", "fetch"):
            tracer.emit("source", "f", source="homesSrc")
        return tracer.events

    def test_jsonl_round_trip(self):
        events = self._traced()
        sink = io.StringIO()
        written = export_jsonl(events, sink)
        assert written == len(events)
        lines = sink.getvalue().splitlines()
        parsed = [json.loads(line) for line in lines]
        assert parsed == [e.to_dict() for e in events]

    def test_jsonl_stringifies_unserializable_data(self):
        events = [TraceEvent("source", "d", {"obj": object()})]
        sink = io.StringIO()
        export_jsonl(events, sink)
        json.loads(sink.getvalue())  # still valid JSON

    def test_chrome_trace_shape(self):
        events = self._traced()
        sink = io.StringIO()
        written = export_chrome_trace(events, sink)
        payload = json.loads(sink.getvalue())
        assert payload["displayTimeUnit"] == "ms"
        phases = [e["ph"] for e in payload["traceEvents"]]
        assert phases == ["B", "i", "E"]
        assert written == 3
        begin = payload["traceEvents"][0]
        assert begin["name"] == "client.fetch"
        assert begin["pid"] == 1 and begin["tid"] == 1

    def test_exporters_write_files(self, tmp_path):
        events = self._traced()
        jsonl = tmp_path / "trace.jsonl"
        chrome = tmp_path / "trace.json"
        export_jsonl(events, str(jsonl))
        export_chrome_trace(events, str(chrome))
        assert len(jsonl.read_text().splitlines()) == len(events)
        json.loads(chrome.read_text())


class TestContextMetricsIntegration:
    def test_metrics_snapshot_reads_registered_counters(self):
        """A series is a read of a registered counter at scrape time:
        a later scrape sees the counter's later value, and the stats
        report does not restate the series."""
        context = ExecutionContext(EngineConfig())
        stats = ChannelStats()
        name = context.register("channel", "remote#", stats)
        stats.bump("messages", 3)
        series = context.metrics_snapshot()[
            "channel_round_trips_total"]["series"]
        assert series == {"channel=" + name: 3}
        stats.bump("messages")
        assert context.metrics_snapshot()["channel_round_trips_total"][
            "series"] == {"channel=" + name: 4}
        assert "metrics" not in context.stats_report()

    def test_mediator_source_metrics(self):
        med = MIXMediator(EngineConfig())
        med.register_source(
            "homesSrc", MaterializedDocument(homes_source()))
        doc = med._documents["homesSrc"]
        doc.fetch(doc.root())
        doc.down(doc.root())
        series = med.runtime.metrics_snapshot()[
            "source_navigations_total"]["series"]
        assert series["command=f,source=homesSrc"] == 1
        assert series["command=d,source=homesSrc"] == 1


def _observed_mediator(config=None, clock=None):
    tracer = Tracer(record=True, clock=clock or FakeClock())
    med = MIXMediator(config or EngineConfig(observe_operators=True),
                      tracer=tracer)
    med.register_source("homesSrc",
                        MaterializedDocument(homes_source()))
    med.register_source("schoolsSrc",
                        MaterializedDocument(schools_source()))
    return med, tracer


class TestSpanTreePropagation:
    """Satellite: one connected span tree across thread boundaries."""

    def test_local_materialize_yields_connected_forest(self):
        med, tracer = _observed_mediator()
        result = med.prepare(fig4_plan())
        result.materialize()
        forest = build_span_tree(tracer.events)
        assert forest.orphans == []
        assert forest.roots, "no spans at all"
        # every root is a client navigation; operators nest below
        assert {root.layer for root in forest.roots} == {"client"}
        layers = {node.layer for root in forest.roots
                  for node in root.walk()}
        assert "operator" in layers
        # every source command is accounted to some client span
        in_tree = len(forest.events("source"))
        assert in_tree == med.total_source_navigations()

    def test_prefetch_scan_stays_connected(self):
        tracer = Tracer(record=True, clock=FakeClock())
        source = MaterializedDocument(schools_source())
        from repro.client.remote import NavigableLXPServer
        server = NavigableLXPServer(source, chunk_size=1, depth=2)
        buffer = buffered(server, prefetch=2, tracer=tracer,
                          name="schoolsSrc")
        materialize(buffer)
        forest = build_span_tree(tracer.events)
        assert forest.orphans == []
        spans = [s for s in forest.spans.values()
                 if s.layer == "buffer"]
        # demand and look-ahead fills alike run on the navigating
        # thread, each source command inside its fill's span
        assert {s.name for s in spans} == {"fill", "prefetch_fill"}
        assert len({s.thread for s in spans}) == 1
        assert sum(len(s.leaf_events("source")) for s in spans) \
            == len(forest.events("source"))

    def test_deterministic_under_fake_clock(self):
        def run():
            med, tracer = _observed_mediator()
            med.prepare(fig4_plan()).materialize()
            return [(e.layer, e.event, e.span_id, e.parent_id, e.ts_ms)
                    for e in tracer.events]

        assert run() == run()


class TestFig9Reconciliation:
    """Acceptance: leaf spans reconcile exactly with the meters."""

    def _remote_session(self):
        tracer = Tracer(record=True, clock=FakeClock())
        config = EngineConfig(observe_operators=True)
        med = MIXMediator(config, tracer=tracer)
        med.register_source("homesSrc",
                            MaterializedDocument(homes_source()))
        med.register_source("schoolsSrc",
                            MaterializedDocument(schools_source()))
        result = med.prepare(fig4_plan())
        root, channel_stats = result.connect_remote()
        return med, result, root, channel_stats

    def test_one_fetch_reconciles_with_meters_and_channel(self):
        med, result, root, channel_stats = self._remote_session()
        tracer = med.tracer
        first = root.first_child()   # descend to the first med_home
        assert first.tag == "med_home"
        forest = build_span_tree(tracer.events)
        assert forest.orphans == []
        # Every source command -- including the ones the connection's
        # root fill provoked -- is a leaf event of the span forest;
        # the counts reconcile exactly with the meters.
        source_events = forest.events("source")
        assert len(source_events) == med.total_source_navigations()
        assert len(source_events) > 0
        # ... and per source, event counts match each meter.
        for name, meter in med.meters.items():
            per_source = [e for e in source_events
                          if e.data.get("source") == name]
            assert len(per_source) == meter.total
        # Channel round trips reconcile with the channel stats.  The
        # connection handshake (get_root) happens outside any span and
        # is legitimately stray; every navigation-driven round trip is
        # in-tree.
        round_trips = forest.events("channel") + [
            e for e in forest.stray_events if e.layer == "channel"]
        assert len(round_trips) == channel_stats.messages
        assert sum(e.data["bytes"] for e in round_trips) \
            == channel_stats.bytes_transferred
        # The scraped series read the same traffic.
        series = result.context.metrics_snapshot()[
            "channel_round_trips_total"]["series"]
        assert sum(series.values()) == channel_stats.messages

    def test_source_metrics_match_meters(self):
        med, result, root, channel_stats = self._remote_session()
        for child in root.children():
            child.to_tree()          # navigate the whole answer
        # The query's own scrape and the mediator's agree with the
        # meters (this mediator ran this one query).
        for context in (result.context, med.runtime):
            series = context.metrics_snapshot()[
                "source_navigations_total"]["series"]
            for name, meter in med.meters.items():
                counted = sum(
                    series["command=%s,source=%s" % (command, name)]
                    for command in ("d", "r", "f", "select"))
                assert counted == meter.total
                assert meter.total > 0


class TestObservabilityOffIsIdentical:
    """With observability disabled (the defaults), navigation counts
    must be byte-identical to the un-instrumented engine."""

    def _navigation_counts(self, config):
        med = MIXMediator(config)
        med.register_wrapper("homesSrc",
                             XMLFileWrapper("homesSrc", HOMES_XML))
        med.register_wrapper("schoolsSrc",
                             XMLFileWrapper("schoolsSrc", SCHOOLS_XML))
        result = med.prepare(fig4_plan())
        result.materialize()
        return {name: meter.counters.as_dict()
                for name, meter in med.meters.items()}

    def test_observed_run_navigates_identically(self):
        plain = self._navigation_counts(EngineConfig())
        observed_med_counts = None
        tracer = Tracer(record=True, clock=FakeClock())
        med = MIXMediator(EngineConfig(observe_operators=True),
                          tracer=tracer)
        med.register_wrapper("homesSrc",
                             XMLFileWrapper("homesSrc", HOMES_XML))
        med.register_wrapper("schoolsSrc",
                             XMLFileWrapper("schoolsSrc", SCHOOLS_XML))
        med.prepare(fig4_plan()).materialize()
        observed = {name: meter.counters.as_dict()
                    for name, meter in med.meters.items()}
        assert observed == plain


#: ``operator`` spans per operator and method for the cheap-books
#: query over the ``allbooks`` view, as first read (then as the
#: ``operator_navigations_total`` series) when ``project`` and
#: ``rename`` still had classes of their own.  Each observed operator
#: is a route barrier: the pass-through shapes above it route ``b.X``
#: to its proxy, never past it, so every hop keeps its span and its
#: count.
OBSERVED_BROWSE_SERIES = {
    "Concatenate#1": {"attribute": 1, "first_binding": 1, "v_down": 15,
                      "v_fetch": 14, "v_right": 14},
    "CreateElement#1": {"attribute": 1, "first_binding": 1,
                        "next_binding": 1, "v_down": 1},
    "CreateElement#2": {"attribute": 1, "first_binding": 1, "v_down": 1,
                        "v_fetch": 1},
    "GetDescendants#1": {"attribute": 74, "first_binding": 1,
                         "next_binding": 20, "v_down": 47, "v_fetch": 27},
    "GetDescendants#2": {"attribute": 74, "first_binding": 1,
                         "next_binding": 20, "v_down": 47, "v_fetch": 27},
    "GetDescendants#3": {"attribute": 68, "first_binding": 1,
                         "next_binding": 40, "v_down": 54, "v_fetch": 14},
    "GetDescendants#4": {"attribute": 68, "first_binding": 1,
                         "next_binding": 40, "v_down": 40, "v_fetch": 40},
    "GroupBy#1": {"attribute": 1, "first_binding": 1, "next_binding": 1,
                  "v_down": 95, "v_fetch": 54, "v_right": 40},
    "GroupBy#2": {"attribute": 1, "first_binding": 1, "v_down": 15,
                  "v_fetch": 15, "v_right": 14},
    "Project#1": {"attribute": 74, "first_binding": 1, "next_binding": 20},
    "Project#2": {"attribute": 74, "first_binding": 1, "next_binding": 20},
    "Project#3": {"attribute": 1, "first_binding": 1, "next_binding": 1},
    "Rename#1": {"attribute": 1, "first_binding": 1, "next_binding": 1},
    "Select#1": {"attribute": 28, "first_binding": 1, "next_binding": 14},
    "Source#1": {"attribute": 1, "first_binding": 1, "next_binding": 1,
                 "v_down": 345, "v_fetch": 464, "v_right": 417},
    "Source#2": {"attribute": 1, "first_binding": 1, "next_binding": 1,
                 "v_down": 345, "v_fetch": 464, "v_right": 417},
    "Union#1": {"attribute": 148, "first_binding": 1, "next_binding": 40},
}


def test_observed_operators_are_route_barriers():
    tracer = Tracer(record=True, clock=FakeClock())
    med = MIXMediator(EngineConfig(observe_operators=True),
                      tracer=tracer)
    for name, books in zip(("amazonSrc", "bnSrc"),
                           two_bookstores(20, seed=1)):
        med.register_wrapper(name, TreeLXPServer(
            Tree(name, [Tree("catalog", books)]), chunk_size=10))
    med.register_view(ALLBOOKS_VIEW_NAME, allbooks_plan())
    result = med.prepare(CHEAP_DB_BOOKS_QUERY)
    result.materialize()
    series = {}
    for event in tracer.events:
        if event.layer == "operator" and event.event.endswith(".begin"):
            method = event.event[:-len(".begin")]
            calls = series.setdefault(event.data["op"], {})
            calls[method] = calls.get(method, 0) + 1
    assert series == OBSERVED_BROWSE_SERIES
