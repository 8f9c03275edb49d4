"""Prometheus text-exposition conformance for the metrics export.

The daemon's always-on telemetry is scraped as text
(``repro status --prometheus``, the ``mix:status`` reply's
``prometheus`` key, and the CI smoke-scrape), so the exporter must
produce *valid* exposition format, not merely plausible-looking
lines: HELP before TYPE, cumulative histogram buckets with a
terminal ``+Inf`` equal to the count series, and correct escaping in
label values and help text.  The same line, HELP/TYPE and escaping
checks run over a real query's scrape (``metrics_prometheus()``).
"""

from __future__ import annotations

import io
import re

import pytest

from repro.bench import HOMES_SCHOOLS_QUERY, homes_and_schools
from repro.mediator import MIXMediator
from repro.runtime import EngineConfig
from repro.runtime.observability import (
    MetricsRegistry,
    export_prometheus,
)
from repro.wrappers import XMLFileWrapper
from repro.xtree import to_xml

#: every sample line of the text exposition format: name{labels} value
SAMPLE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*'
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="([^"\\]|\\.)*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="([^"\\]|\\.)*")*\})? '
    r'[-+]?([0-9.]+(e[-+]?[0-9]+)?|Inf|NaN)$')


def _export(registry):
    return export_prometheus(registry, io.StringIO())


def _lines(registry):
    return _export(registry).splitlines()


class TestMetaLines:
    def test_help_precedes_type_which_precedes_samples(self):
        registry = MetricsRegistry()
        registry.counter("requests_total",
                         help_text="Requests served.").inc(op="fill")
        lines = _lines(registry)
        assert lines[0] == ("# HELP repro_requests_total "
                            "Requests served.")
        assert lines[1] == "# TYPE repro_requests_total counter"
        assert lines[2] == 'repro_requests_total{op="fill"} 1'

    def test_help_first_writer_wins(self):
        registry = MetricsRegistry()
        registry.counter("hits", help_text="The first help.")
        registry.counter("hits", help_text="A later rewrite.")
        registry.counter("hits").inc()
        text = _export(registry)
        assert "# HELP repro_hits The first help." in text
        assert "A later rewrite" not in text

    def test_no_help_means_no_help_line(self):
        registry = MetricsRegistry()
        registry.counter("bare").inc()
        lines = _lines(registry)
        assert lines[0] == "# TYPE repro_bare counter"
        assert not any(line.startswith("# HELP") for line in lines)

    def test_type_lines_name_the_instrument_kind(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(4.5)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        text = _export(registry)
        assert "# TYPE repro_c counter" in text
        assert "# TYPE repro_g gauge" in text
        assert "# TYPE repro_h histogram" in text

    def test_metric_names_are_sanitized_and_prefixed(self):
        registry = MetricsRegistry()
        registry.counter("weird.name-here").inc()
        assert "repro_weird_name_here 1" in _export(registry)

    def test_every_sample_line_parses(self):
        """Every non-comment line must match the exposition grammar:
        name{labels} value."""
        registry = MetricsRegistry()
        registry.counter("a", help_text="A.").inc(op="x")
        registry.gauge("b").set(2.25, kind="y")
        registry.histogram("c", buckets=(1, 10)).observe(3, op="z")
        for line in _lines(registry):
            if line.startswith("#"):
                continue
            assert SAMPLE.match(line), "unparseable line: %r" % line


class TestHistogramExport:
    def test_buckets_are_cumulative_with_terminal_inf(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_ms", buckets=(1.0, 5.0, 25.0))
        for value in (0.5, 0.7, 3.0, 24.0, 100.0, 7000.0):
            hist.observe(value)
        text = _export(registry)
        assert 'repro_lat_ms_bucket{le="1"} 2' in text
        assert 'repro_lat_ms_bucket{le="5"} 3' in text
        assert 'repro_lat_ms_bucket{le="25"} 4' in text
        assert 'repro_lat_ms_bucket{le="+Inf"} 6' in text
        assert "repro_lat_ms_count 6" in text
        assert "repro_lat_ms_sum 7128.2" in text

    def test_inf_bucket_equals_count_per_label_set(self):
        registry = MetricsRegistry()
        hist = registry.histogram("ms", buckets=(1.0, 10.0))
        for op, values in (("open", (0.5, 2.0)),
                           ("fill", (0.1, 5.0, 50.0))):
            for value in values:
                hist.observe(value, op=op)
        text = _export(registry)
        for op, expected in (("open", 2), ("fill", 3)):
            inf = re.search(
                r'repro_ms_bucket\{op="%s",le="\+Inf"\} (\d+)' % op,
                text)
            count = re.search(
                r'repro_ms_count\{op="%s"\} (\d+)' % op, text)
            assert inf and count
            assert int(inf.group(1)) == expected
            assert int(count.group(1)) == expected

    def test_bucket_counts_never_decrease(self):
        registry = MetricsRegistry()
        hist = registry.histogram("v", buckets=(1, 2, 4, 8, 16))
        for value in (0.5, 3, 3, 9, 100, 0.1, 17):
            hist.observe(value)
        counts = [int(m.group(1)) for m in re.finditer(
            r'repro_v_bucket\{le="[^"]+"\} (\d+)',
            _export(registry))]
        assert len(counts) == 6
        assert counts == sorted(counts)

    def test_le_label_is_appended_after_user_labels(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0,)).observe(0.5, op="x")
        assert 'repro_h_bucket{op="x",le="1"} 1' in _export(registry)


class TestEscaping:
    def test_label_values_escape_quote_backslash_newline(self):
        registry = MetricsRegistry()
        registry.counter("errs").inc(
            reason='path "C:\\tmp"\nline2')
        text = _export(registry)
        assert ('repro_errs{reason='
                '"path \\"C:\\\\tmp\\"\\nline2"} 1') in text

    def test_help_escapes_backslash_and_newline_only(self):
        registry = MetricsRegistry()
        registry.counter(
            "doc", help_text='uses "quotes", a \\ and\na newline'
        ).inc()
        text = _export(registry)
        assert ('# HELP repro_doc uses "quotes", a \\\\ and\\n'
                'a newline') in text

    def test_escaped_output_stays_single_line(self):
        registry = MetricsRegistry()
        registry.counter("multi", help_text="a\nb").inc(detail="c\nd")
        for line in _lines(registry):
            assert "\n" not in line  # splitlines already guarantees
        assert len(_lines(registry)) == 3


class TestRegistryDiscipline:
    def test_kind_collision_is_a_type_error(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_integral_floats_render_without_decimal_point(self):
        registry = MetricsRegistry()
        registry.gauge("whole").set(3.0)
        registry.gauge("frac").set(3.5)
        text = _export(registry)
        assert "repro_whole 3\n" in text
        assert "repro_frac 3.5" in text


#: a wrapper name that exercises every escaped character of a label
ODD_NAME = 'odd "src" C:\\tmp\nline2'


class TestQueryScrape:
    """A real query's pulled exposition: the series read from its
    counters obey the same grammar as a hand-filled registry."""

    @pytest.fixture(scope="class")
    def text(self):
        mediator = MIXMediator(EngineConfig(retry_max_attempts=2))
        sources = homes_and_schools(4)
        for name, tree in sources.items():
            mediator.register_wrapper(
                name, XMLFileWrapper(name, to_xml(tree), chunk_size=2))
        mediator.register_wrapper(ODD_NAME, XMLFileWrapper(
            ODD_NAME, to_xml(sources["homesSrc"])))
        result = mediator.prepare(HOMES_SCHOOLS_QUERY)
        root, _ = result.connect_remote(chunk_size=2, depth=2)
        root.to_tree()
        return result.context.metrics_prometheus()

    def test_every_sample_line_parses(self, text):
        lines = text.splitlines()
        assert len(lines) > 20
        for line in lines:
            if not line.startswith("#"):
                assert SAMPLE.match(line), "unparseable line: %r" % line

    def test_each_family_is_typed_before_its_samples(self, text):
        typed = {}
        for line in text.splitlines():
            if line.startswith("# TYPE "):
                _, _, metric, kind = line.split(" ")
                assert metric not in typed, "family typed twice"
                typed[metric] = kind
            elif not line.startswith("#"):
                metric = re.match(r"[a-zA-Z0-9_:]+", line).group(0)
                assert metric in typed, "sample before its TYPE line"
        assert typed["repro_source_navigations_total"] == "counter"
        assert typed["repro_channel_round_trips_total"] == "counter"
        assert typed["repro_lxp_fills_total"] == "counter"
        assert typed["repro_buffer_hits"] == "gauge"
        assert typed["repro_resilience_retries"] == "gauge"

    def test_registered_names_are_escaped(self, text):
        escaped = 'odd \\"src\\" C:\\\\tmp\\nline2'
        assert 'repro_buffer_hits{buffer="%s"}' % escaped in text
        assert 'repro_lxp_fills_total{source="%s"} 0' % escaped in text
