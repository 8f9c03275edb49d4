"""Smoke tests: every shipped example runs cleanly, and the top-level
documentation stays consistent with the repository contents."""

import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES_DIR = os.path.join(REPO_ROOT, "examples")

EXAMPLES = sorted(
    name for name in os.listdir(EXAMPLES_DIR) if name.endswith(".py")
)


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name):
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, name)],
        capture_output=True, text=True, timeout=300, cwd=REPO_ROOT)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "example produced no output"


def test_expected_examples_present():
    expected = {"quickstart.py", "bookstore_integration.py",
                "web_browsing.py", "heterogeneous_join.py",
                "bbq_browser.py", "remote_session.py",
                "unreliable_source.py", "serve_demo.py"}
    assert expected <= set(EXAMPLES)


def _read(name):
    with open(os.path.join(REPO_ROOT, name)) as handle:
        return handle.read()


class TestDocsConsistency:
    def test_design_indexes_every_experiment_file(self):
        design = _read("DESIGN.md")
        bench_dir = os.path.join(REPO_ROOT, "benchmarks")
        for name in os.listdir(bench_dir):
            if name.startswith("test_bench_"):
                assert name in design, \
                    "%s missing from DESIGN.md's experiment index" % name

    def test_experiments_covers_all_ids(self):
        experiments = _read("EXPERIMENTS.md")
        for exp_id in ["E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8",
                       "E9", "E10", "E11"]:
            assert ("## %s " % exp_id) in experiments \
                or ("## %s —" % exp_id) in experiments, exp_id

    def test_experiments_tables_match_results_dir(self):
        experiments = _read("EXPERIMENTS.md")
        results = os.path.join(REPO_ROOT, "benchmarks", "results")
        # Every quoted result table should still exist on disk.
        for name in ["E2_browsability", "E3_lazy_vs_eager",
                     "E4_granularity_full_scan", "E7_cache_ablation",
                     "E10_remote_client", "E11_hybrid"]:
            assert os.path.exists(
                os.path.join(results, name + ".txt")), name

    def test_readme_mentions_examples(self):
        readme = _read("README.md")
        for name in EXAMPLES:
            assert name in readme, \
                "%s not documented in README" % name

    def test_version_consistent(self):
        import repro
        pyproject = _read("pyproject.toml")
        assert 'version = "%s"' % repro.__version__ in pyproject


class TestWireProtocolTablesSync:
    """PROTOCOLS.md's op, error-code and fault tables are renderings
    of ``daemon.OPS``, ``wire.ERRORS`` and ``daemon.FAULTS``: every
    declared row appears verbatim (up to its free-text last column)
    and nothing undeclared is documented."""

    @pytest.fixture(scope="class")
    def section(self):
        text = _read(os.path.join("docs", "PROTOCOLS.md"))
        part = text.split("### Session lifecycle", 1)[1]
        return part.split("\n### ", 1)[0]

    @staticmethod
    def _rows(section, header):
        """The body rows of the table whose header line starts with
        ``header``, each as its list of stripped cells."""
        lines = section.split("\n")
        start = next(i for i, line in enumerate(lines)
                     if line.startswith(header))
        rows = []
        for line in lines[start + 2:]:
            if not line.startswith("|"):
                break
            rows.append([cell.strip() for cell in line.split("|")[1:-1]])
        return rows

    def test_op_table_is_the_declared_op_set(self, section):
        from repro.server.daemon import OPS
        from repro.server.session import Session
        documented = [(row[0], row[1])
                      for row in self._rows(section, "| op |")]
        assert documented == [
            ("`%s`" % op, "session" if op in Session.OPS else "daemon")
            for op in OPS]

    def test_error_table_is_wire_errors(self, section):
        from repro.server.wire import ERRORS
        yes_no = {True: "yes", False: "no"}
        documented = [row[:4] for row in self._rows(section, "| code |")]
        assert documented == [
            ["`%s`" % code, "`%s`" % spec.exception.__name__,
             yes_no[spec.transient], yes_no[spec.killed]]
            for code, spec in ERRORS.items()]

    def test_fault_table_is_daemon_faults(self, section):
        import socket
        from repro.server.daemon import FAULTS

        def cell(value):
            return "`%s`" % value if value is not None else "—"

        def name(exception):
            return ("socket.timeout" if exception is socket.timeout
                    else exception.__name__)

        assert self._rows(section, "| phase |") == [
            [phase, cell(name(exception)), cell(reason), cell(code)]
            for phase, exception, reason, code, _ in FAULTS]
