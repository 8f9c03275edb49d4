"""The repo linter (``python -m tools.lint``).

Three properties: the tree it gates is clean under it, each check
fires on a minimal synthetic violation, and the inline
``# lint: allow=`` suppressions work.  The linter is a tool, not part
of the ``repro`` package: it is imported from the repo root.
"""

import sys
from pathlib import Path

import pytest


REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO))

from tools import lint as lint_repro  # noqa: E402

EVENT_NAMES = lint_repro.load_event_names(REPO)


def _lint_source(tmp_path, source, name="probe.py"):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return lint_repro.lint_file(path, EVENT_NAMES)


def _codes(findings):
    return [f.code for f in findings]


class TestRepoIsClean:
    def test_src_tree_has_no_findings(self, capsys):
        assert lint_repro.main([str(REPO / "src" / "repro")]) == 0
        assert capsys.readouterr().out == ""

    def test_tools_and_examples_are_clean_too(self):
        assert lint_repro.main([str(REPO / "tools"),
                                str(REPO / "examples")]) == 0


class TestLockConsistency:
    LEAKY = """\
import threading

class Box:
    def __init__(self):
        self._lock = threading.Lock()
        self._items = []
        self._count = 0

    def add(self, item):
        with self._lock:
            self._items.append(item)
            self._count += 1

    def sneak(self, item):
        self._items.append(item)
        self._count = 2
"""

    def test_unlocked_mutation_of_guarded_attr(self, tmp_path):
        findings = _lint_source(tmp_path, self.LEAKY)
        assert _codes(findings) == ["L001", "L001"]
        assert sorted(f.message for f in findings) == [
            "Box.sneak mutates self._count outside its lock (guarded "
            "elsewhere in the class)",
            "Box.sneak mutates self._items outside its lock (guarded "
            "elsewhere in the class)",
        ]

    def test_init_and_locked_methods_exempt(self, tmp_path):
        source = self.LEAKY.replace("def sneak", "def _sneak_locked")
        assert _lint_source(tmp_path, source) == []

    def test_unguarded_class_is_fine(self, tmp_path):
        source = """\
class Plain:
    def __init__(self):
        self._items = []

    def add(self, item):
        self._items.append(item)
"""
        assert _lint_source(tmp_path, source) == []


class TestEventNameContract:
    def test_known_literal_passes(self, tmp_path):
        layer, names = sorted(EVENT_NAMES["events"].items())[0]
        source = "tracer.emit(%r, %r, x=1)\n" % (layer,
                                                 sorted(names)[0])
        assert _lint_source(tmp_path, source) == []

    def test_unknown_name_is_e001(self, tmp_path):
        layer = sorted(EVENT_NAMES["events"])[0]
        findings = _lint_source(
            tmp_path, "tracer.emit(%r, 'no_such_event')\n" % layer)
        assert _codes(findings) == ["E001"]

    def test_unknown_layer_is_e001(self, tmp_path):
        findings = _lint_source(
            tmp_path, "tracer.emit('no_such_layer', 'x')\n")
        assert _codes(findings) == ["E001"]

    def test_non_literal_name_is_e002(self, tmp_path):
        layer = sorted(EVENT_NAMES["events"])[0]
        findings = _lint_source(
            tmp_path, "tracer.emit(%r, some_variable)\n" % layer)
        assert _codes(findings) == ["E002"]

    def test_span_checked_against_span_table(self, tmp_path):
        layer = sorted(EVENT_NAMES["spans"])[0]
        findings = _lint_source(
            tmp_path, "tracer.span(%r, 'no_such_span')\n" % layer)
        assert _codes(findings) == ["E001"]


class TestHygiene:
    def test_bare_except_is_x100(self, tmp_path):
        source = """\
try:
    pass
except:
    pass
"""
        assert _codes(_lint_source(tmp_path, source)) == ["X100"]

    def test_typed_except_is_fine(self, tmp_path):
        source = """\
try:
    pass
except ValueError:
    pass
"""
        assert _lint_source(tmp_path, source) == []

    def test_real_sleep_is_x101(self, tmp_path):
        source = "import time\ntime.sleep(0.1)\n"
        assert _codes(_lint_source(tmp_path, source)) == ["X101"]

    def test_sleep_allowed_in_runtime_resilience(self, tmp_path):
        source = "import time\ntime.sleep(0.1)\n"
        assert _lint_source(tmp_path, source,
                            name="runtime/resilience.py") == []


class TestSocketTimeouts:
    def test_create_connection_without_timeout_is_x102(self, tmp_path):
        source = ("import socket\n"
                  "sock = socket.create_connection(('h', 1))\n")
        assert _codes(_lint_source(tmp_path, source)) == ["X102"]

    def test_create_connection_with_timeout_kw_is_fine(self, tmp_path):
        source = ("import socket\n"
                  "sock = socket.create_connection(('h', 1), "
                  "timeout=2.0)\n")
        assert _lint_source(tmp_path, source) == []

    def test_socket_creation_without_settimeout_is_x102(self,
                                                        tmp_path):
        source = ("import socket\n"
                  "sock = socket.socket(socket.AF_INET, "
                  "socket.SOCK_STREAM)\n")
        assert _codes(_lint_source(tmp_path, source)) == ["X102"]

    def test_accept_without_settimeout_is_x102(self, tmp_path):
        source = ("def loop(listener):\n"
                  "    conn, addr = listener.accept()\n")
        assert _codes(_lint_source(tmp_path, source)) == ["X102"]

    def test_settimeout_anywhere_in_file_clears_x102(self, tmp_path):
        source = ("import socket\n"
                  "sock = socket.socket()\n"
                  "sock.settimeout(1.0)\n"
                  "conn, addr = sock.accept()\n")
        assert _lint_source(tmp_path, source) == []

    def test_merely_using_a_passed_socket_is_fine(self, tmp_path):
        source = ("def recv_exact(sock, n):\n"
                  "    return sock.recv(n)\n")
        assert _lint_source(tmp_path, source,
                            name="server/wire.py") == []

    def test_x102_honours_suppression(self, tmp_path):
        source = ("import socket\n"
                  "sock = socket.socket()  # lint: allow=X102\n")
        assert _lint_source(tmp_path, source) == []


class TestRawFrameIO:
    def test_sendall_and_recv_outside_wire_are_x103(self, tmp_path):
        source = ("def ask(sock, data):\n"
                  "    sock.sendall(data)\n"
                  "    return sock.recv(4)\n")
        assert _codes(_lint_source(tmp_path, source)) \
            == ["X103", "X103"]

    def test_length_prefix_struct_outside_wire_is_x103(self, tmp_path):
        source = ("import struct\n"
                  "HEADER = struct.Struct('>I')\n"
                  "size = struct.pack('!I', 7)\n")
        assert _codes(_lint_source(tmp_path, source)) \
            == ["X103", "X103"]

    def test_other_struct_formats_are_fine(self, tmp_path):
        source = ("import struct\n"
                  "linger = struct.pack('ii', 1, 0)\n")
        assert _lint_source(tmp_path, source) == []

    def test_wire_module_is_the_sanctioned_site(self, tmp_path):
        source = ("import struct\n"
                  "HEADER = struct.Struct('>I')\n"
                  "def put(sock, body):\n"
                  "    sock.sendall(HEADER.pack(len(body)) + body)\n")
        assert _lint_source(tmp_path, source,
                            name="server/wire.py") == []

    def test_x103_is_an_error_and_honours_suppression(self, tmp_path):
        assert lint_repro.CODES["X103"].severity == "error"
        source = ("def garbage(sock):\n"
                  "    # lint: allow=X103 -- malformed on purpose\n"
                  "    sock.sendall(b'junk')\n")
        assert _lint_source(tmp_path, source) == []

    def test_the_fault_kit_holds_the_only_suppression(self):
        holders = [path.relative_to(REPO).as_posix()
                   for root in ("src", "benchmarks", "tools", "examples")
                   for path in sorted((REPO / root).rglob("*.py"))
                   if "allow=X103" in path.read_text()
                   and path.parts[-2:] != ("lint", "rules.py")]
        assert holders == ["src/repro/testing/transport.py"]


class TestUnusedImports:
    def test_imported_names_never_loaded_are_x104(self, tmp_path):
        source = ("import os\n"
                  "import os.path as osp\n"
                  "from typing import List, Optional\n"
                  "def names() -> List[str]:\n"
                  "    return []\n")
        findings = _lint_source(tmp_path, source)
        assert _codes(findings) == ["X104", "X104", "X104"]
        assert [f.line for f in findings] == [1, 2, 3]
        assert "'Optional'" in findings[2].message

    def test_loads_attributes_and_aliases_count_as_uses(self, tmp_path):
        source = ("import os.path\n"
                  "from json import dumps as render\n"
                  "def where():\n"
                  "    return os.path.sep, render\n")
        assert _lint_source(tmp_path, source) == []

    def test_exports_future_and_string_annotations_are_exempt(
            self, tmp_path):
        source = ("from __future__ import annotations\n"
                  "from collections import OrderedDict\n"
                  "if False:\n"
                  "    from threading import Lock\n"
                  "__all__ = ['OrderedDict']\n"
                  "def guard(lock: 'Optional[Lock]' = None):\n"
                  "    return lock\n")
        assert _lint_source(tmp_path, source) == []

    def test_package_init_reexports_are_exempt(self, tmp_path):
        source = "from os import sep\n"
        assert _lint_source(tmp_path, source,
                            name="pkg/__init__.py") == []
        assert _codes(_lint_source(tmp_path, source)) == ["X104"]

    def test_x104_honours_suppression(self, tmp_path):
        assert lint_repro.CODES["X104"].severity == "warning"
        source = "import os  # lint: allow=X104\n"
        assert _lint_source(tmp_path, source) == []


class TestSuppression:
    def test_same_line_allow(self, tmp_path):
        source = ("import time\n"
                  "time.sleep(0.1)  # lint: allow=X101\n")
        assert _lint_source(tmp_path, source) == []

    def test_line_above_allow(self, tmp_path):
        source = ("import time\n"
                  "# lint: allow=X101 -- testing the clock itself\n"
                  "time.sleep(0.1)\n")
        assert _lint_source(tmp_path, source) == []

    def test_allow_is_code_specific(self, tmp_path):
        source = ("import time\n"
                  "time.sleep(0.1)  # lint: allow=X100\n")
        assert _codes(_lint_source(tmp_path, source)) == ["X101"]


class TestDriver:
    def test_findings_exit_one_and_render_path_line(self, tmp_path,
                                                    capsys):
        probe = tmp_path / "bad.py"
        probe.write_text("import time\ntime.sleep(1)\n")
        assert lint_repro.main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "bad.py:2: X101" in out

    @pytest.mark.parametrize("flag", ["--lock-graph", "--assert-contains"])
    def test_flag_missing_its_value_is_a_usage_error(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            lint_repro.main([flag])
        assert exit_info.value.code == 2
        assert "expected one argument" in capsys.readouterr().err


class TestMetricLabelCardinality:
    """E003: metric labels must come from a closed vocabulary.

    A per-session or per-trace label value mints a new Prometheus
    series per session -- a cardinality leak that grows without
    bound.  Identity-shaped data belongs in trace events or the
    flight recorder, never in metric labels.
    """

    def test_unbounded_label_on_inc_is_flagged(self, tmp_path):
        source = ("metrics.counter('kills').inc("
                  "session=session_id)\n")
        assert _codes(_lint_source(tmp_path, source)) == ["E003"]

    def test_unbounded_label_flagged_even_off_a_variable(
            self, tmp_path):
        # The receiver is a plain name, not a factory chain, but
        # `trace_id` is on the always-forbidden list.
        source = "counter.inc(trace_id=tid)\n"
        assert _codes(_lint_source(tmp_path, source)) == ["E003"]

    def test_unknown_label_off_factory_chain_is_flagged(
            self, tmp_path):
        source = ("metrics.counter('hits').inc("
                  "shard_name=name)\n")
        findings = _lint_source(tmp_path, source)
        assert _codes(findings) == ["E003"]
        assert "closed label vocabulary" in findings[0].message

    def test_unknown_label_on_gauge_set_is_flagged(self, tmp_path):
        source = ("metrics.gauge('depth').set(3, "
                  "widget=widget_id)\n")
        assert _codes(_lint_source(tmp_path, source)) == ["E003"]

    def test_bounded_labels_pass(self, tmp_path):
        source = ("metrics.counter('kills').inc(reason='idle')\n"
                  "metrics.histogram('ms').observe(5.0, op='fill')\n"
                  "metrics.gauge('n').set(2, counter='requests')\n")
        assert _lint_source(tmp_path, source) == []

    def test_event_set_is_not_a_metric_write(self, tmp_path):
        # threading.Event.set() shares a method name with Gauge.set;
        # without a factory chain and without kwargs it must not trip.
        source = "stop.set()\n"
        assert _lint_source(tmp_path, source) == []

    def test_unknown_label_off_plain_receiver_passes(self, tmp_path):
        # Off a plain variable the vocabulary check stays quiet (we
        # cannot know it is an instrument); only the always-forbidden
        # identity labels are flagged there.
        source = "thing.set(1, shard_name=name)\n"
        assert _lint_source(tmp_path, source) == []

    def test_suppression_comment_silences_e003(self, tmp_path):
        source = ("metrics.counter('kills').inc("
                  "session=sid)  # lint: allow=E003\n")
        assert _lint_source(tmp_path, source) == []
