"""Prometheus text-exposition conformance for the metrics renderer.

The daemon's always-on telemetry is scraped as text
(``repro status --prometheus``, the ``mix:status`` reply's
``prometheus`` key, and the CI smoke-scrape), so the renderer must
produce *valid* exposition format, not merely plausible-looking
lines: HELP before TYPE, cumulative histogram buckets with a
terminal ``+Inf`` equal to the count series, and correct escaping in
label values and help text.  Families reach
:func:`~repro.runtime.observability.render_prometheus` as data
(name, kind, help, labelled rows), as the context and the daemon
read them from their counters.  The same line, HELP/TYPE and
escaping checks run over a real query's scrape
(``metrics_prometheus()``).
"""

from __future__ import annotations

import dataclasses
import re

import pytest

from repro.bench import HOMES_SCHOOLS_QUERY, homes_and_schools
from repro.mediator import MIXMediator
from repro.runtime import EngineConfig, ExecutionContext
from repro.runtime.observability import render_prometheus
from repro.server import MediatorServer
from repro.wrappers import XMLFileWrapper
from repro.xtree import to_xml

#: every sample line of the text exposition format: name{labels} value
SAMPLE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*'
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="([^"\\]|\\.)*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="([^"\\]|\\.)*")*\})? '
    r'[-+]?([0-9.]+(e[-+]?[0-9]+)?|Inf|NaN)$')


def _lines(*families):
    return render_prometheus(families).splitlines()


def _op(op):
    return (("op", op),)


class TestMetaLines:
    def test_help_precedes_type_which_precedes_samples(self):
        lines = _lines(("requests_total", "counter", "Requests served.",
                        [(_op("fill"), 1)]))
        assert lines[0] == ("# HELP repro_requests_total "
                            "Requests served.")
        assert lines[1] == "# TYPE repro_requests_total counter"
        assert lines[2] == 'repro_requests_total{op="fill"} 1'

    def test_no_help_means_no_help_line(self):
        lines = _lines(("bare", "counter", "", [((), 1)]))
        assert lines[0] == "# TYPE repro_bare counter"
        assert not any(line.startswith("# HELP") for line in lines)

    def test_type_lines_name_the_instrument_kind(self):
        text = render_prometheus([
            ("c", "counter", "", [((), 1)]),
            ("g", "gauge", "", [((), 4.5)]),
            ("h", "histogram", "", [((), ((1.0,), [1, 0], 0.5))])])
        assert "# TYPE repro_c counter" in text
        assert "# TYPE repro_g gauge" in text
        assert "# TYPE repro_h histogram" in text

    def test_metric_names_are_sanitized_and_prefixed(self):
        assert "repro_weird_name_here 1" in render_prometheus(
            [("weird.name-here", "counter", "", [((), 1)])])

    def test_families_sort_by_name_and_rows_by_labels(self):
        lines = _lines(
            ("b", "gauge", "", [(_op("y"), 2), (_op("x"), 1)]),
            ("a", "gauge", "", [((), 0)]))
        assert lines == ["# TYPE repro_a gauge", "repro_a 0",
                         "# TYPE repro_b gauge", 'repro_b{op="x"} 1',
                         'repro_b{op="y"} 2']

    def test_a_family_without_rows_is_typed_only(self):
        assert _lines(("empty", "gauge", "", [])) == [
            "# TYPE repro_empty gauge"]
        assert render_prometheus([]) == ""

    def test_every_sample_line_parses(self):
        """Every non-comment line must match the exposition grammar:
        name{labels} value."""
        for line in _lines(
                ("a", "counter", "A.", [(_op("x"), 1)]),
                ("b", "gauge", "", [((("kind", "y"),), 2.25)]),
                ("c", "histogram", "",
                 [(_op("z"), ((1, 10), [0, 1, 0], 3))])):
            if line.startswith("#"):
                continue
            assert SAMPLE.match(line), "unparseable line: %r" % line


class TestHistogramExport:
    def test_buckets_are_cumulative_with_terminal_inf(self):
        # observations 0.5, 0.7, 3.0, 24.0, 100.0 and 7000.0
        text = render_prometheus([("lat_ms", "histogram", "", [
            ((), ((1.0, 5.0, 25.0), [2, 1, 1, 2], 7128.2))])])
        assert 'repro_lat_ms_bucket{le="1"} 2' in text
        assert 'repro_lat_ms_bucket{le="5"} 3' in text
        assert 'repro_lat_ms_bucket{le="25"} 4' in text
        assert 'repro_lat_ms_bucket{le="+Inf"} 6' in text
        assert "repro_lat_ms_count 6" in text
        assert "repro_lat_ms_sum 7128.2" in text

    def test_inf_bucket_equals_count_per_label_set(self):
        text = render_prometheus([("ms", "histogram", "", [
            (_op("open"), ((1.0, 10.0), [1, 1, 0], 2.5)),
            (_op("fill"), ((1.0, 10.0), [1, 1, 1], 55.1))])])
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
        # observations 0.5, 3, 3, 9, 100, 0.1 and 17
        text = render_prometheus([("v", "histogram", "", [
            ((), ((1, 2, 4, 8, 16), [2, 0, 2, 0, 1, 2], 132.6))])])
        counts = [int(m.group(1)) for m in re.finditer(
            r'repro_v_bucket\{le="[^"]+"\} (\d+)', text)]
        assert len(counts) == 6
        assert counts == sorted(counts)

    def test_le_label_is_appended_after_user_labels(self):
        assert 'repro_h_bucket{op="x",le="1"} 1' in render_prometheus(
            [("h", "histogram", "",
              [(_op("x"), ((1.0,), [1, 0], 0.5))])])


class TestEscaping:
    def test_label_values_escape_quote_backslash_newline(self):
        text = render_prometheus([("errs", "counter", "", [
            ((("reason", 'path "C:\\tmp"\nline2'),), 1)])])
        assert ('repro_errs{reason='
                '"path \\"C:\\\\tmp\\"\\nline2"} 1') in text

    def test_help_escapes_backslash_and_newline_only(self):
        text = render_prometheus([(
            "doc", "counter", 'uses "quotes", a \\ and\na newline',
            [((), 1)])])
        assert ('# HELP repro_doc uses "quotes", a \\\\ and\\n'
                'a newline') in text

    def test_escaped_output_stays_single_line(self):
        lines = _lines(("multi", "counter", "a\nb",
                        [((("detail", "c\nd"),), 1)]))
        for line in lines:
            assert "\n" not in line  # splitlines already guarantees
        assert len(lines) == 3


class TestRegistryDiscipline:
    def test_every_family_name_has_one_kind(self):
        """The context's and the daemon's family tables with every
        series present: a name is one family within its table, and of
        one kind across both."""
        server = MediatorServer(MIXMediator(EngineConfig()))
        for counters in [server.stats, *server.op_stats.values()]:
            for field in dataclasses.fields(counters):
                counters.bump(field.name)
        kinds = {}
        for table in (ExecutionContext()._families(),
                      server._families()):
            names = [family[0] for family in table]
            assert len(names) == len(set(names)), names
            for name, kind, _, _ in table:
                assert kinds.setdefault(name, kind) == kind, name
        assert len(kinds) == 17 + 9
        assert kinds["server_request_ms"] == "histogram"
        assert kinds["source_navigations_total"] == "counter"

    def test_integral_floats_render_without_decimal_point(self):
        text = render_prometheus([("whole", "gauge", "", [((), 3.0)]),
                                  ("frac", "gauge", "", [((), 3.5)])])
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
