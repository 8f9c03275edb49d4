"""The static plan analyzer: findings model, the four passes, the
mediator wiring, and the ``lint`` CLI.

The analyzer must (a) agree with ``classify_plan`` on the overall
verdict, (b) catch schema-level impossibilities before any source is
touched, (c) stay byte-for-byte off the default path, and (d) keep
its code registry in sync with the PROTOCOLS.md documentation table.
"""

import json
from pathlib import Path

import pytest

from repro import MIXMediator, StaticAnalysisError, XMLFileWrapper
from repro.algebra import (
    And,
    Comparison,
    Const,
    Difference,
    Distinct,
    GetDescendants,
    GroupBy,
    Join,
    OrderBy,
    Project,
    Select,
    Source,
    TruePredicate,
    Var,
)
from repro.analysis import (
    CODES,
    AnalysisReport,
    Finding,
    SchemaGraph,
    Severity,
    analyze_plan,
    analyze_query,
    cardinality_degree,
    scan_examples,
    static_truth,
    walk_with_paths,
)
from repro.cli import main as cli_main
from repro.runtime import EngineConfig
from repro.wrappers.xmlfile import document_node
from repro.xmas.dtd import infer_dtd
from repro.xtree.parse import parse_xml

from .fixtures import fig4_plan, homes_source, schools_source

REPO = Path(__file__).resolve().parent.parent

HOMES_XML = """<homes>
  <home><addr>A</addr><zip>92093</zip></home>
  <home><addr>B</addr><zip>92111</zip></home>
</homes>"""

SCHOOLS_XML = """<schools>
  <school><dir>Smith</dir><zip>92093</zip></school>
</schools>"""

FIG4_QUERY = (
    "CONSTRUCT <answer><med_home> $H $S {$S} </med_home> {$H}"
    "</answer> {} "
    "WHERE homesSrc homes.home $H AND $H zip._ $V1 "
    "AND schoolsSrc schools.school $S AND $S zip._ $V2 "
    "AND $V1 = $V2")


def _schemas():
    return {
        "homesSrc": document_node("homesSrc", parse_xml(HOMES_XML)),
        "schoolsSrc": document_node("schoolsSrc",
                                    parse_xml(SCHOOLS_XML)),
    }


def _codes(report):
    return {f.code for f in report.findings}


# ----------------------------------------------------------------------
# Findings model
# ----------------------------------------------------------------------

class TestFindingsModel:
    def test_severity_order_and_parse(self):
        assert Severity.INFO.rank < Severity.WARNING.rank \
            < Severity.ERROR.rank
        assert Severity.parse("warning") is Severity.WARNING
        with pytest.raises(ValueError):
            Severity.parse("fatal")

    def test_finding_defaults_severity_from_registry(self):
        finding = Finding(code="S010", message="nope")
        assert finding.severity is Severity.ERROR
        assert finding.title == "unsatisfiable-path"

    def test_unregistered_code_rejected(self):
        with pytest.raises(ValueError):
            Finding(code="Z999", message="bogus")

    def test_report_sorts_most_severe_first(self):
        report = AnalysisReport([
            Finding(code="R010", message="hint"),
            Finding(code="S010", message="error"),
            Finding(code="B001", message="warn"),
        ])
        assert [f.severity for f in report.findings] == [
            Severity.ERROR, Severity.WARNING, Severity.INFO]

    def test_suppression_drops_and_counts(self):
        report = AnalysisReport(
            [Finding(code="B001", message="warn"),
             Finding(code="R010", message="hint")],
            suppressed=("B001",))
        assert _codes(report) == {"R010"}
        assert report.suppressed_count == 1

    def test_exit_codes(self):
        err = AnalysisReport([Finding(code="S010", message="e")])
        warn = AnalysisReport([Finding(code="B001", message="w")])
        info = AnalysisReport([Finding(code="R010", message="i")])
        clean = AnalysisReport([])
        assert err.exit_code() == 2
        assert warn.exit_code() == 1
        assert info.exit_code() == 0
        assert info.exit_code(fail_on=Severity.INFO) == 1
        assert warn.exit_code(fail_on=Severity.ERROR) == 0
        assert clean.exit_code(fail_on=Severity.INFO) == 0

    def test_json_shape(self):
        report = AnalysisReport(
            [Finding(code="B001", message="w", node_path="0",
                     signature="orderBy[$V]")],
            verdict="unbrowsable", plan_signature="root[sig]",
            subject="s")
        data = json.loads(report.to_json())
        assert data["subject"] == "s"
        assert data["verdict"] == "unbrowsable"
        assert data["plan"] == "root[sig]"
        assert data["counts"]["warning"] == 1
        finding = data["findings"][0]
        assert finding["code"] == "B001"
        assert finding["severity"] == "warning"
        assert finding["node_path"] == "0"
        assert finding["signature"] == "orderBy[$V]"

    def test_codes_documented_in_protocols(self):
        """Every registered code appears in the PROTOCOLS.md table
        with its registry severity and title -- and no ghost codes
        are documented.  Scoped to the "Static diagnostics" section:
        the repo linter's own codes live in "Concurrency discipline"
        and have their own sync test."""
        text = (REPO / "docs" / "PROTOCOLS.md").read_text()
        section = text.split("## Static diagnostics", 1)[1]
        section = section.split("\n## ", 1)[0]
        for code, info in CODES.items():
            row = "| `%s` | %s | `%s` |" % (code, info.severity,
                                            info.title)
            assert row in section, \
                "PROTOCOLS.md missing/outdated: %s" % row
        import re
        documented = set(re.findall(r"\| `([A-Z]\d{3})` \|", section))
        assert documented == set(CODES)


# ----------------------------------------------------------------------
# Plan walking
# ----------------------------------------------------------------------

def node_at(plan, path):
    """Resolve a child-index path back to its node."""
    node = plan
    if path:
        for part in path.split("."):
            node = node.inputs[int(part)]
    return node


class TestWalk:
    def test_paths_roundtrip(self):
        plan = fig4_plan()
        for path, node in walk_with_paths(plan):
            assert node_at(plan, path) is node

    def test_root_path_is_empty(self):
        plan = fig4_plan()
        pairs = list(walk_with_paths(plan))
        assert pairs[0] == ("", plan)


# ----------------------------------------------------------------------
# The browsability pass
# ----------------------------------------------------------------------

class TestBrowsabilityPass:
    def test_fig4_has_no_browsability_warnings(self):
        report = analyze_plan(fig4_plan())
        assert not [f for f in report.findings
                    if f.code in ("B001", "B002")]
        assert report.verdict == "browsable"

    def test_orderby_flags_b001_b002(self):
        plan = OrderBy(Project(GetDescendants(
            Source("src", "R"), "R", "_", "X"), ["X"]), ["X"])
        report = analyze_plan(plan)
        assert {"B001", "B002"} <= _codes(report)
        assert report.verdict == "unbrowsable"
        b002 = [f for f in report.findings if f.code == "B002"][0]
        assert node_at(plan, b002.node_path) is plan

    def test_difference_flags_unbrowsable(self):
        left = Project(GetDescendants(Source("a", "R"), "R", "_",
                                      "X"), ["X"])
        right = Project(GetDescendants(Source("b", "R"), "R", "_",
                                       "X"), ["X"])
        report = analyze_plan(Difference(left, right))
        assert {"B001", "B002"} <= _codes(report)

    def test_sigma_upgrade_hint_only_without_sigma(self):
        plan = Project(GetDescendants(Source("src", "R"), "R", "hit",
                                      "X"), ["X"])
        plain = analyze_plan(plan, EngineConfig(use_sigma=False))
        sigma = analyze_plan(plan, EngineConfig(use_sigma=True))
        assert "B010" in _codes(plain)
        assert "B010" not in _codes(sigma)


# ----------------------------------------------------------------------
# The schema pass
# ----------------------------------------------------------------------

class TestSchemaPass:
    def test_schema_graph_from_tree(self):
        graph = SchemaGraph.from_tree(
            document_node("homesSrc", parse_xml(HOMES_XML)))
        assert graph.root == "homesSrc"
        assert graph.child_labels("homes") == {"home"}
        assert "zip" in graph.labels

    def test_schema_graph_from_dtd(self):
        from repro.xmas.parser import parse_xmas
        dtd = infer_dtd(parse_xmas(FIG4_QUERY))
        graph = SchemaGraph.from_dtd(dtd)
        assert graph.root == dtd.root
        assert "med_home" in graph.labels

    def test_fig4_clean_with_schemas(self):
        _plan, report = analyze_query(FIG4_QUERY, schemas=_schemas())
        assert not report.errors
        assert not report.warnings

    def test_unsatisfiable_path_is_error(self):
        query = FIG4_QUERY.replace("homes.home", "homes.hoome")
        _plan, report = analyze_query(query, schemas=_schemas())
        assert [f.code for f in report.errors].count("S010") >= 1
        s010 = [f for f in report.errors if f.code == "S010"][0]
        # the typo suggestion rides along
        assert "hoome" in s010.message
        assert "home" in s010.message

    def test_no_schema_means_no_schema_findings(self):
        _plan, report = analyze_query(FIG4_QUERY)
        assert not [f for f in report.findings
                    if f.code.startswith("S")]

    def test_static_truth(self):
        assert static_truth(TruePredicate()) is True
        assert static_truth(Comparison(Const(1), "=", Const(2))) \
            is False
        assert static_truth(Comparison(Const(1), "=", Const(1))) \
            is True
        assert static_truth(
            Comparison(Var("X"), "=", Const(1))) is None
        contradiction = And((Comparison(Var("X"), "=", Const("a")),
                             Comparison(Var("X"), "=", Const("b"))))
        assert static_truth(contradiction) is False

    def test_dead_select_branch(self):
        base = Project(GetDescendants(Source("src", "R"), "R", "_",
                                      "X"), ["X"])
        report = analyze_plan(
            Select(base, Comparison(Const(1), "=", Const(2))))
        assert "S020" in _codes(report)

    def test_join_never_matches_is_error(self):
        left = Project(GetDescendants(Source("a", "R"), "R", "_",
                                      "X"), ["X"])
        right = Project(GetDescendants(Source("b", "R"), "R", "_",
                                       "Y"), ["Y"])
        joined = Join(left, right,
                      And((Comparison(Var("X"), "=", Const("p")),
                           Comparison(Var("X"), "=", Const("q")))))
        report = analyze_plan(joined)
        assert "S021" in {f.code for f in report.errors}


# ----------------------------------------------------------------------
# The cost pass
# ----------------------------------------------------------------------

class TestCostPass:
    def test_cardinality_degrees(self):
        src = Source("src", "R")
        assert cardinality_degree(src) == 0
        one = GetDescendants(src, "R", "_", "X")
        assert cardinality_degree(one) == 1
        two = GetDescendants(one, "X", "_", "Y")
        assert cardinality_degree(two) == 2
        joined = Join(one, two, TruePredicate())
        assert cardinality_degree(joined) == 3

    def test_orderby_over_growing_input_warns_c001(self):
        plan = OrderBy(Project(GetDescendants(
            Source("src", "R"), "R", "_", "X"), ["X"]), ["X"])
        assert "C001" in _codes(analyze_plan(plan))

    def test_join_cache_hint_only_without_budget(self):
        left = Project(GetDescendants(Source("a", "R"), "R", "_",
                                      "X"), ["X"])
        right = Project(GetDescendants(Source("b", "R"), "R", "_",
                                       "Y"), ["Y"])
        joined = Join(left, right, TruePredicate())
        unbounded = analyze_plan(joined)
        bounded = analyze_plan(joined, EngineConfig(cache_budget=64))
        disabled = analyze_plan(joined,
                                EngineConfig(cache_enabled=False))
        assert "C010" in _codes(unbounded)
        assert "C010" not in _codes(bounded)
        assert "C010" not in _codes(disabled)

    def test_stateful_operator_state_hint(self):
        base = Project(GetDescendants(Source("src", "R"), "R", "_",
                                      "X"), ["X"])
        assert "C011" in _codes(analyze_plan(Distinct(base)))


# ----------------------------------------------------------------------
# The rewrites pass
# ----------------------------------------------------------------------

class TestRewritesPass:
    def test_hints_are_informational(self):
        base = Project(GetDescendants(Source("src", "R"), "R", "_",
                                      "X"), ["X"])
        report = analyze_plan(Distinct(Distinct(base)))
        codes = _codes(report)
        assert "R012" in codes
        for finding in report.findings:
            if finding.code.startswith("R"):
                assert finding.severity is Severity.INFO

    def test_applicable_rule_surfaces_r001(self):
        base = Project(GetDescendants(Source("src", "R"), "R", "_",
                                      "X"), ["X"])
        stacked = Select(Select(base, TruePredicate()),
                         TruePredicate())
        report = analyze_plan(stacked)
        r001 = [f for f in report.findings if f.code == "R001"]
        assert r001 and r001[0].data["rule"] == "merge-selects"


# ----------------------------------------------------------------------
# Mediator wiring
# ----------------------------------------------------------------------

def _mediator():
    med = MIXMediator()
    med.register_wrapper("homesSrc",
                         XMLFileWrapper("homesSrc", HOMES_XML))
    med.register_wrapper("schoolsSrc",
                         XMLFileWrapper("schoolsSrc", SCHOOLS_XML))
    for name, tree in _schemas().items():
        med.register_schema(name, tree)
    return med


class TestMediatorWiring:
    def test_default_path_attaches_no_analysis(self):
        result = _mediator().prepare(FIG4_QUERY)
        assert result.analysis is None

    def test_analyze_static_attaches_report(self):
        result = _mediator().prepare(FIG4_QUERY, analyze="static")
        assert result.analysis is not None
        assert result.analysis.verdict == "browsable"
        assert not result.analysis.errors
        # the analyzed plan still answers correctly
        assert result.root.find("med_home") is not None

    def test_static_rejects_error_plans(self):
        bad = FIG4_QUERY.replace("homes.home", "homes.hoome")
        med = _mediator()
        # every prepare gets its own verdict, a repeated text too
        for _ in range(2):
            with pytest.raises(StaticAnalysisError) as exc:
                med.prepare(bad, analyze="static")
            assert exc.value.report.errors
            assert "S010" in {f.code for f in exc.value.report.errors}

    def test_strict_rejects_warnings(self):
        query = FIG4_QUERY.replace("AND $V1 = $V2",
                                   "AND $V1 = $V2 ORDER BY $V1")
        med = _mediator()
        med.prepare(query, analyze="static")  # warning-only: passes
        with pytest.raises(StaticAnalysisError):
            med.prepare(query, analyze="strict")

    def test_config_default_mode(self):
        med = MIXMediator(EngineConfig(static_analysis="static"))
        med.register_wrapper("homesSrc",
                             XMLFileWrapper("homesSrc", HOMES_XML))
        med.register_wrapper("schoolsSrc",
                             XMLFileWrapper("schoolsSrc",
                                            SCHOOLS_XML))
        result = med.prepare(FIG4_QUERY)
        assert result.analysis is not None
        # per-call override wins over the config default
        assert med.prepare(FIG4_QUERY, analyze="off").analysis is None

    def test_bad_mode_rejected(self):
        from repro import MediatorError
        with pytest.raises(MediatorError):
            _mediator().prepare(FIG4_QUERY, analyze="bogus")
        with pytest.raises(Exception):
            EngineConfig(static_analysis="bogus")

    def test_static_analysis_event_traced(self):
        med = _mediator()
        med.tracer.record = True
        med.prepare(FIG4_QUERY, analyze="static")
        events = [e for e in med.tracer.events
                  if e.event == "static_analysis"]
        assert len(events) == 1
        assert events[0].data["verdict"] == "browsable"

    def test_explain_lint_renders_report(self):
        result = _mediator().prepare(FIG4_QUERY, analyze="static")
        text = result.explain(lint=True)
        assert "static diagnostics:" in text
        assert "verdict: browsable" in text

    def test_explain_lint_runs_fresh_analysis(self):
        # lint=True works even when prepare() did not analyze
        result = _mediator().prepare(FIG4_QUERY)
        assert result.analysis is None
        assert "static diagnostics:" in result.explain(lint=True)


# ----------------------------------------------------------------------
# The lint CLI
# ----------------------------------------------------------------------

class TestLintCLI:
    def test_clean_query_exits_zero(self, tmp_path, capsys):
        code = cli_main(["lint", "-q", FIG4_QUERY])
        assert code == 0
        assert "verdict: browsable" in capsys.readouterr().out

    def test_error_exits_two_with_schema(self, tmp_path, capsys):
        homes = tmp_path / "homes.xml"
        homes.write_text(HOMES_XML)
        bad = FIG4_QUERY.replace("homes.home", "homes.hoome")
        code = cli_main(["lint", "-q", bad,
                         "-s", "homesSrc=%s" % homes])
        assert code == 2
        assert "S010" in capsys.readouterr().out

    def test_warning_exit_and_fail_on(self, capsys):
        query = FIG4_QUERY + " ORDER BY $V1"
        assert cli_main(["lint", "-q", query]) == 1
        capsys.readouterr()
        assert cli_main(["lint", "-q", query,
                         "--fail-on", "error"]) == 0
        capsys.readouterr()

    def test_suppress_flag(self, capsys):
        query = FIG4_QUERY + " ORDER BY $V1"
        code = cli_main(["lint", "-q", query,
                         "--suppress", "B001,B002,C001"])
        assert code == 0
        capsys.readouterr()

    def test_uncompilable_query_reports_x001(self, capsys):
        code = cli_main(["lint", "-q", "CONSTRUCT oops"])
        assert code == 2
        assert "X001" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        out = tmp_path / "findings.json"
        cli_main(["lint", "-q", FIG4_QUERY, "--json", str(out)])
        capsys.readouterr()
        data = json.loads(out.read_text())
        assert data["verdict"] == "browsable"
        assert isinstance(data["findings"], list)

    def test_examples_scan_all_clean(self, tmp_path, capsys):
        out = tmp_path / "findings.json"
        code = cli_main(["lint", "--examples",
                         str(REPO / "examples"),
                         "--json", str(out)])
        assert code == 0, capsys.readouterr().out
        capsys.readouterr()
        reports = json.loads(out.read_text())
        assert len(reports) >= 5
        subjects = {r["subject"] for r in reports}
        assert "bbq_browser.py:QUERY" in subjects

    def test_examples_inline_suppression_respected(self):
        reports = scan_examples(REPO / "examples")
        bbq = [r for r in reports
               if r.subject == "bbq_browser.py:QUERY"]
        assert len(bbq) == 1
        # the deliberate ORDER BY hazard is suppressed at the query
        assert bbq[0].exit_code() == 0
        assert bbq[0].suppressed_count >= 3


# ----------------------------------------------------------------------
# Zero-overhead guarantee
# ----------------------------------------------------------------------

class TestZeroOverhead:
    def test_analysis_package_not_imported_by_default(self):
        """The default query path must not even import the analyzer."""
        import subprocess
        import sys
        script = (
            "import sys; sys.path.insert(0, 'src')\n"
            "from repro import MIXMediator, XMLFileWrapper\n"
            "med = MIXMediator()\n"
            "med.register_wrapper('homesSrc', "
            "XMLFileWrapper('homesSrc', '''%s'''))\n"
            "med.query('CONSTRUCT <a> $H </a> {$H} "
            "WHERE homesSrc homes.home $H')\n"
            "assert not any(m.startswith('repro.analysis') "
            "for m in sys.modules), 'analysis imported on default path'\n"
            % HOMES_XML)
        proc = subprocess.run([sys.executable, "-c", script],
                              cwd=str(REPO), capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
