"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.xtree import parse_xml

QUERY = ("CONSTRUCT <answer><med_home> $H $S {$S} </med_home> {$H}"
         "</answer> {} "
         "WHERE homesSrc homes.home $H AND $H zip._ $V1 "
         "AND schoolsSrc schools.school $S AND $S zip._ $V2 "
         "AND $V1 = $V2")


@pytest.fixture
def source_files(tmp_path):
    homes = tmp_path / "homes.xml"
    homes.write_text(
        "<homes><home><addr>La Jolla</addr><zip>91220</zip></home>"
        "<home><addr>El Cajon</addr><zip>91223</zip></home></homes>")
    schools = tmp_path / "schools.xml"
    schools.write_text(
        "<schools><school><dir>Smith</dir><zip>91220</zip></school>"
        "<school><dir>Hart</dir><zip>91223</zip></school></schools>")
    return {"homesSrc": str(homes), "schoolsSrc": str(schools)}


def _query_argv(source_files, *extra):
    argv = ["query"]
    for name, path in source_files.items():
        argv += ["-s", "%s=%s" % (name, path)]
    argv += ["-q", QUERY]
    argv += list(extra)
    return argv


class TestQueryCommand:
    def test_prints_answer_document(self, source_files, capsys):
        assert main(_query_argv(source_files)) == 0
        out = capsys.readouterr().out.strip()
        answer = parse_xml(out)
        assert answer.label == "answer"
        assert len(answer.children) == 2

    def test_eager_matches_lazy(self, source_files, capsys):
        main(_query_argv(source_files))
        lazy_out = parse_xml(capsys.readouterr().out)
        main(_query_argv(source_files, "--eager"))
        eager_out = parse_xml(capsys.readouterr().out)
        assert lazy_out == eager_out

    def test_stats_go_to_stderr(self, source_files, capsys):
        main(_query_argv(source_files, "--stats"))
        captured = capsys.readouterr()
        assert "source navigations" in captured.err
        assert "homesSrc" in captured.err

    def test_query_from_file(self, source_files, tmp_path, capsys):
        query_file = tmp_path / "q.xmas"
        query_file.write_text(QUERY)
        argv = ["query"]
        for name, path in source_files.items():
            argv += ["-s", "%s=%s" % (name, path)]
        argv += ["-f", str(query_file)]
        assert main(argv) == 0
        assert parse_xml(capsys.readouterr().out).label == "answer"

    def test_bad_source_spec(self, source_files):
        with pytest.raises(SystemExit):
            main(["query", "-s", "nonsense", "-q", QUERY])

    def test_pretty_output(self, source_files, capsys):
        main(_query_argv(source_files, "--pretty"))
        out = capsys.readouterr().out
        assert "\n  <med_home>" in out


class TestResilienceFlags:
    def test_retries_flags_accepted_on_healthy_run(self, source_files,
                                                   capsys):
        assert main(_query_argv(source_files, "--retries", "3",
                                "--retry-deadline", "1000",
                                "--stats")) == 0
        captured = capsys.readouterr()
        answer = parse_xml(captured.out)
        assert len(answer.children) == 2
        assert "resilience" in captured.err
        assert "retries=0" in captured.err

    def test_degrade_flag_accepted(self, source_files, capsys):
        assert main(_query_argv(source_files, "--degrade")) == 0
        answer = parse_xml(capsys.readouterr().out)
        assert answer.label == "answer"

    def test_concurrency_flags_leave_answer_unchanged(self,
                                                      source_files,
                                                      capsys):
        main(_query_argv(source_files))
        baseline = parse_xml(capsys.readouterr().out)
        for extra in (["--batch-navigations", "--prefetch", "4"],
                      ["--prefetch", "2"]):
            assert main(_query_argv(source_files, *extra)) == 0
            assert parse_xml(capsys.readouterr().out) == baseline


class TestPlanCommand:
    def test_shows_plan_and_class(self, capsys):
        assert main(["plan", "-q", QUERY]) == 0
        out = capsys.readouterr().out
        assert "tupleDestroy" in out
        assert "join[$V1 = $V2]" in out
        assert "browsability:" in out

    def test_shows_rewrites_when_applicable(self, capsys):
        selective = QUERY + " AND $V1 = 91220"
        main(["plan", "-q", selective])
        out = capsys.readouterr().out
        assert "rewritten plan" in out


class TestClassifyCommand:
    def test_per_node_report(self, capsys):
        assert main(["classify", "-q",
                     "CONSTRUCT <a> $X {$X} </a> {} "
                     "WHERE src r.hit $X ORDER BY $X"]) == 0
        out = capsys.readouterr().out
        assert "unbrowsable" in out
        assert "orderBy" in out

    def test_sigma_flag_changes_class(self, capsys):
        query = ("CONSTRUCT <a> $X {$X} </a> {} WHERE src hit $X")
        main(["classify", "-q", query])
        without = capsys.readouterr().out
        main(["classify", "-q", query, "--sigma"])
        with_sigma = capsys.readouterr().out

        def line_of(text, fragment):
            return next(l for l in text.splitlines() if fragment in l)

        # groupBy keeps the plan root browsable either way, but sigma
        # upgrades the label extraction itself.
        assert "bounded" not in line_of(without, "getDescendants")
        assert "bounded" in line_of(with_sigma, "getDescendants")


class TestObservabilityFlags:
    def test_trace_out_jsonl(self, source_files, tmp_path, capsys):
        import json
        trace = tmp_path / "trace.jsonl"
        assert main(_query_argv(source_files, "--trace-out",
                                str(trace))) == 0
        captured = capsys.readouterr()
        assert parse_xml(captured.out).label == "answer"
        assert "trace:" in captured.err
        lines = trace.read_text().splitlines()
        assert lines
        events = [json.loads(line) for line in lines]
        assert any(e["event"].endswith(".begin") for e in events)
        assert any(e["layer"] == "source" for e in events)

    def test_trace_out_chrome(self, source_files, tmp_path, capsys):
        import json
        trace = tmp_path / "trace.json"
        assert main(_query_argv(source_files, "--trace-out",
                                str(trace), "--trace-format",
                                "chrome")) == 0
        capsys.readouterr()
        payload = json.loads(trace.read_text())
        assert {e["ph"] for e in payload["traceEvents"]} \
            <= {"B", "E", "i"}

    def test_metrics_out_prometheus(self, source_files, tmp_path,
                                    capsys):
        metrics = tmp_path / "metrics.prom"
        assert main(_query_argv(source_files, "--metrics-out",
                                str(metrics))) == 0
        capsys.readouterr()
        text = metrics.read_text()
        assert "# TYPE repro_source_navigations_total counter" in text
        assert 'source="homesSrc"' in text

    def test_answer_unchanged_under_observation(self, source_files,
                                                tmp_path, capsys):
        main(_query_argv(source_files))
        baseline = parse_xml(capsys.readouterr().out)
        trace = tmp_path / "t.jsonl"
        metrics = tmp_path / "m.prom"
        main(_query_argv(source_files, "--trace-out", str(trace),
                         "--metrics-out", str(metrics)))
        assert parse_xml(capsys.readouterr().out) == baseline


class TestProfileCommand:
    def test_profile_subcommand(self, source_files, capsys):
        argv = ["profile"]
        for name, path in source_files.items():
            argv += ["-s", "%s=%s" % (name, path)]
        argv += ["-q", QUERY]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "browsability profile (observed):" in out
        assert "client navigations:" in out
        assert "verdict:" in out
        assert "Join#1" in out


class TestServeCommand:
    @pytest.mark.parametrize("spec", ["homes:abc", "homes:-3",
                                      "schools:5"])
    def test_bad_workload_spec_is_a_usage_error(self, spec):
        """A scale that is not a number takes the same exit as an
        unknown workload kind -- a message, not a traceback."""
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--workload", spec])
        assert "unknown --workload %r" % spec in str(excinfo.value)


class TestTraceMergeCommand:
    def test_empty_merge_to_stdout_prints_no_blank_line(self, tmp_path,
                                                        capsys):
        client, server = tmp_path / "c.jsonl", tmp_path / "s.jsonl"
        client.write_text("")
        server.write_text("")
        assert main(["trace", "merge", str(client), str(server),
                     "-o", "-"]) == 0
        assert capsys.readouterr().out == (
            "trace merge: 0 client + 0 server = 0 events, "
            "0 root span(s)\n")
