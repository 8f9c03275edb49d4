"""The daemon's flight recorder and live telemetry (PR 9).

The flight recorder is the always-on black box: a bounded ring of
the last N operational events, frozen into an incident dump on every
session kill and once on drain.  ``mix:status`` is the live window:
the daemon's counters, per-session table, fragcache stats, and
(optionally) Prometheus text, served to any connection -- including
the ``repro status`` CLI.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import threading

import pytest

from repro.mediator import MIXMediator
from repro.runtime import EngineConfig
from repro.runtime.observability import FlightRecorder
from repro.server import MediatorServer, connect, fetch_status
from repro.testing.faults import FakeClock
from repro.testing.transport import (
    open_raw,
    recv_reply_bytes,
    send_frame_bytes,
    send_garbage,
)
from repro.testing.transport import _decode  # test-only convenience

from .test_server_sessions import QUERY, make_server, wait_until


# ----------------------------------------------------------------------
# the ring itself
# ----------------------------------------------------------------------

class TestFlightRecorderRing:
    def test_ring_is_bounded_and_evicts_oldest(self):
        recorder = FlightRecorder(capacity=4)
        for i in range(10):
            recorder.record("server", "request", serial=i)
        entries = recorder.snapshot()
        assert len(entries) == 4
        assert [e["data"]["serial"] for e in entries] == [6, 7, 8, 9]
        stats = recorder.stats()
        assert stats == {"capacity": 4, "size": 4, "recorded": 10,
                         "incidents": 0}

    def test_clock_is_injected(self):
        clock = FakeClock()
        recorder = FlightRecorder(capacity=4, clock=clock)
        recorder.record("server", "open")
        clock.advance(25.0)
        recorder.record("server", "close")
        first, second = recorder.snapshot()
        assert first["ts_ms"] == 0.0
        assert second["ts_ms"] == 25.0

    def test_incident_freezes_ring_and_writes_jsonl(self, tmp_path):
        recorder = FlightRecorder(capacity=8,
                                  incident_dir=str(tmp_path),
                                  clock=FakeClock())
        for i in range(3):
            recorder.record("server", "request", op="fill", n=i)
        record = recorder.incident("budget", session="s#1",
                                   detail="12-fill budget")
        assert record["reason"] == "budget"
        assert record["session"] == "s#1"
        assert len(record["events"]) == 3
        path = record["path"]
        assert path is not None and os.path.exists(path)
        assert pathlib.Path(path).name == "incident-001-budget.jsonl"

        lines = [json.loads(line) for line in
                 pathlib.Path(path).read_text().splitlines()]
        header, entries = lines[0], lines[1:]
        assert header["reason"] == "budget"
        assert header["session"] == "s#1"
        assert header["events"] == 3
        assert [e["data"]["n"] for e in entries] == [0, 1, 2]

        # The bounded summary history keeps no event payloads.
        assert len(recorder.incidents) == 1
        summary = recorder.incidents[0]
        assert "events" not in summary
        assert summary["path"] == path

    def test_incident_without_dir_keeps_summary_only(self):
        recorder = FlightRecorder(capacity=4)
        recorder.record("server", "kill", reason="idle")
        record = recorder.incident("idle")
        assert record["path"] is None
        assert len(record["events"]) == 1
        assert recorder.incidents[0]["path"] is None

    def test_unwritable_incident_dir_is_swallowed(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        recorder = FlightRecorder(capacity=4,
                                  incident_dir=str(blocker))
        recorder.record("server", "kill", reason="idle")
        record = recorder.incident("idle")  # must not raise
        assert record["path"] is None

    def test_incident_serial_increments_and_slug_sanitizes(
            self, tmp_path):
        recorder = FlightRecorder(capacity=4,
                                  incident_dir=str(tmp_path))
        first = recorder.incident("mix:protocol")
        second = recorder.incident("mix:protocol")
        assert pathlib.Path(first["path"]).name \
            == "incident-001-mix-protocol.jsonl"
        assert pathlib.Path(second["path"]).name \
            == "incident-002-mix-protocol.jsonl"

    def test_incident_history_is_bounded(self):
        recorder = FlightRecorder(capacity=2, max_incidents=3)
        for i in range(7):
            recorder.incident("drain", detail=str(i))
        assert len(recorder.incidents) == 3
        assert [s["detail"] for s in recorder.incidents] \
            == ["4", "5", "6"]


# ----------------------------------------------------------------------
# the daemon integration: kills and drain dump the ring
# ----------------------------------------------------------------------

class TestIncidentDumps:
    def test_budget_kill_dumps_incident_with_session_history(
            self, tmp_path):
        server, host, port = make_server(
            n_homes=5, serve_session_max_fills=1, chunk_size=2,
            serve_incident_dir=str(tmp_path))
        try:
            sock = open_raw(host, port)
            try:
                send_frame_bytes(sock, {"op": "open", "query": QUERY})
                opened = _decode(recv_reply_bytes(sock))
                send_frame_bytes(sock, {"op": "fill",
                                        "hole": opened["root"]})
                assert _decode(recv_reply_bytes(sock))["ok"]
                send_frame_bytes(sock, {"op": "fill",
                                        "hole": opened["root"]})
                second = _decode(recv_reply_bytes(sock))
                assert second["error"] == "mix:budget"
            finally:
                sock.close()
            wait_until(lambda: server.stats.snapshot()
                       ["budget_kills"] == 1, message="budget kill")
            dumps = sorted(tmp_path.glob("incident-*-budget.jsonl"))
            assert dumps, "budget kill produced no incident dump"
            lines = [json.loads(line) for line in
                     dumps[0].read_text().splitlines()]
            header, entries = lines[0], lines[1:]
            assert header["reason"] == "budget"
            assert header["session"] == "s#1"
            # The ring holds the killed session's recent history:
            # its open and its delivered request(s).
            sessions = {e["data"].get("session") for e in entries
                        if "session" in e["data"]}
            assert "s#1" in sessions
            events = [(e["layer"], e["event"]) for e in entries]
            assert ("server", "open") in events
            assert ("server", "request") in events
        finally:
            server.drain()

    def test_protocol_kill_dumps_incident(self, tmp_path):
        server, host, port = make_server(
            n_homes=3, serve_incident_dir=str(tmp_path))
        try:
            send_garbage(host, port)
            wait_until(
                lambda: server.stats.snapshot()["protocol_kills"]
                == 1, message="protocol kill")
            wait_until(
                lambda: any(tmp_path.glob(
                    "incident-*-protocol.jsonl")),
                message="protocol incident dump")
        finally:
            server.drain()

    def test_drain_dumps_one_incident(self, tmp_path):
        server, host, port = make_server(
            n_homes=3, serve_incident_dir=str(tmp_path))
        with connect(host, port, QUERY) as session:
            session.root.first_child()
        wait_until(lambda: server.active_sessions == 0,
                   message="session teardown")
        assert server.drain() is True
        dumps = sorted(tmp_path.glob("incident-*-drain.jsonl"))
        assert len(dumps) == 1
        header = json.loads(dumps[0].read_text().splitlines()[0])
        assert header["reason"] == "drain"
        assert "clean=True" in header["detail"]
        # Drain is idempotent: a second call adds no second dump.
        server.drain()
        assert len(list(tmp_path.glob("incident-*-drain.jsonl"))) == 1

    def test_recorder_runs_with_metrics_disabled(self):
        """Always on means always on: the default config, with nothing
        armed, records operational history."""
        server, host, port = make_server(n_homes=3)
        try:
            with connect(host, port, QUERY) as session:
                session.root.first_child()
            wait_until(lambda: server.active_sessions == 0,
                       message="session teardown")
            events = [(e["layer"], e["event"])
                      for e in server.recorder.snapshot()]
            assert ("server", "listen") in events
            assert ("server", "open") in events
            assert ("server", "request") in events
        finally:
            server.drain()

    def test_ring_capacity_follows_config(self):
        server, host, port = make_server(
            n_homes=3, serve_flight_recorder_events=7)
        try:
            assert server.recorder.capacity == 7
        finally:
            server.drain()


# ----------------------------------------------------------------------
# the slow-request log
# ----------------------------------------------------------------------

class TestRequestCounters:
    def test_latency_buckets_are_inclusive_upper_bounds(self):
        """A dispatch of exactly a bound's milliseconds counts in that
        bound's bucket; the exposition cumulates the buckets, and an
        op with no dispatch has no series."""
        server = MediatorServer(MIXMediator(EngineConfig()))
        for elapsed_ms in (1.0, 1.5, 25.0, 20000.0):
            server.op_stats["fill"].observe(elapsed_ms, slow=False)
        server.op_stats["fill"].observe(0.5, slow=True)
        text = server.prometheus_text()
        for bound, count in (("1", 2), ("5", 3), ("25", 4),
                             ("10000", 4), ("+Inf", 5)):
            assert ('repro_server_request_ms_bucket{op="fill",le="%s"} '
                    '%d\n' % (bound, count)) in text
        assert 'repro_server_request_ms_sum{op="fill"} 20028\n' in text
        assert 'repro_server_request_ms_count{op="fill"} 5\n' in text
        assert 'repro_server_slow_requests_total{op="fill"} 1\n' in text
        assert 'op="open"' not in text
        assert "repro_server_requests_total" not in text

    def test_concurrent_requests_are_counted_exactly(self):
        """Handler threads charge one op's counters at once: no update
        is lost (each add is a read-modify-write under the lock)."""
        stats = MediatorServer(MIXMediator(EngineConfig())).op_stats["fill"]
        workers, per_worker = 8, 400

        def charge():
            for _ in range(per_worker):
                stats.observe(0.5, slow=True)
                stats.bump("answered")

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=charge)
                       for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        total = workers * per_worker
        snap = stats.snapshot()
        assert snap["le_1"] == snap["slow"] == snap["answered"] == total
        assert snap["ms_sum"] == 0.5 * total


class TestSlowRequestLog:
    def test_threshold_zero_logs_every_request(self):
        server, host, port = make_server(n_homes=3,
                                         slow_request_ms=0.0)
        try:
            with connect(host, port, QUERY) as session:
                session.root.first_child()
            wait_until(lambda: server.active_sessions == 0,
                       message="session teardown")
            slow = [e for e in server.recorder.snapshot()
                    if e["event"] == "slow_request"]
            assert slow, "threshold 0.0 logged nothing"
            assert slow[0]["data"]["threshold_ms"] == 0.0
            assert "op" in slow[0]["data"]
            assert sum(stats.snapshot()["slow"] for stats
                       in server.op_stats.values()) == len(slow)
            text = server.prometheus_text()
            assert sum(int(line.rsplit(" ", 1)[1])
                       for line in text.splitlines()
                       if line.startswith(
                           "repro_server_slow_requests_total{")
                       ) == len(slow)
        finally:
            server.drain()

    def test_default_threshold_logs_nothing(self):
        server, host, port = make_server(n_homes=3)
        try:
            with connect(host, port, QUERY) as session:
                session.root.first_child()
            wait_until(lambda: server.active_sessions == 0,
                       message="session teardown")
            assert [e for e in server.recorder.snapshot()
                    if e["event"] == "slow_request"] == []
        finally:
            server.drain()


# ----------------------------------------------------------------------
# mix:status and the CLI
# ----------------------------------------------------------------------

class TestStatusVerb:
    def test_status_reply_shape(self):
        server, host, port = make_server(n_homes=3)
        try:
            with connect(host, port, QUERY) as session:
                session.root.first_child()
                status = fetch_status(host, port)
                assert status["draining"] is False
                assert status["address"][1] == port
                # active_sessions counts admitted connections: the
                # open session plus the probe itself.
                assert status["active_sessions"] == 2
                assert status["server"]["sessions_opened"] == 1
                assert status["fragcache"] is None
                recorder = status["flight_recorder"]
                assert recorder["capacity"] == 256
                assert recorder["recorded"] > 0
                assert status["incidents"] == []
                (row,) = status["sessions"]
                assert row["session"] == session.session_id
                assert row["fills"] >= 1
                assert row["requests"] >= 1
                assert row["bytes_shipped"] > 0
                assert row["age_ms"] >= 0.0
                assert row["in_flight"] is None
                assert row["trace_id"] is None
                assert row["peer"] == "127.0.0.1"
                assert row["budget_remaining"] == {"fills": None,
                                                   "bytes": None}
                assert "prometheus" not in status
        finally:
            server.drain()

    def test_status_fragcache_section_is_the_store_counters(self):
        """With the fragment cache on, the section is the shared
        store's ``FragcacheStats`` fields plus its live entry count."""
        import dataclasses

        from repro.bench import homes_and_schools
        from repro.runtime.fragcache import (FragcacheStats,
                                             reset_shared_store)
        from repro.wrappers import XMLFileWrapper

        reset_shared_store()
        server, host, port = make_server(n_homes=3, fragment_cache=True)
        try:
            homes = homes_and_schools(4)["homesSrc"].children[0]
            server.mediator.register_wrapper(
                "homesXml", XMLFileWrapper("homesXml", homes, chunk_size=2))
            with connect(host, port,
                         "CONSTRUCT <r> $H {$H} </r> {} "
                         "WHERE homesXml homes.home $H") as session:
                assert len(session.root.to_tree().children) == 4
            section = fetch_status(host, port)["fragcache"]
            assert sorted(section) == sorted(
                [field.name for field in dataclasses.fields(FragcacheStats)]
                + ["entries"])
            assert section["hits"] == 0
            assert section["misses"] == section["stores"] \
                == section["entries"] > 0
        finally:
            server.drain()
            reset_shared_store()

    def test_status_reports_budget_and_trace(self):
        from repro.runtime.config import EngineConfig
        from repro.runtime.context import ExecutionContext, Tracer

        server, host, port = make_server(n_homes=5,
                                         serve_session_max_fills=10)
        try:
            tracer = Tracer(record=True, trace_id="t-status")
            context = ExecutionContext(EngineConfig(), tracer=tracer)
            with connect(host, port, QUERY, context=context) as s:
                s.root.first_child()
                (row,) = fetch_status(host, port)["sessions"]
                assert row["trace_id"] == "t-status"
                remaining = row["budget_remaining"]["fills"]
                assert remaining == 10 - row["fills"]
        finally:
            server.drain()

    def test_status_mid_session_keeps_dialogue_going(self):
        server, host, port = make_server(n_homes=3)
        try:
            with connect(host, port, QUERY) as session:
                reply = session.channel.call({"op": "status"})
                assert reply["status"]["active_sessions"] == 1
                # The session still navigates after the admin verb.
                assert session.root.first_child().tag == "home"
        finally:
            server.drain()

    def test_status_probes_stay_out_of_request_counters(self):
        server, host, port = make_server(n_homes=3)
        try:
            before = server.stats.snapshot()["requests"]
            for _ in range(3):
                fetch_status(host, port)
            assert server.stats.snapshot()["requests"] == before
            assert server.op_stats["status"].snapshot()["probes"] == 3
            assert "repro_server_status_requests_total 3\n" \
                in server.prometheus_text()
        finally:
            server.drain()

    def test_status_with_prometheus_text(self):
        server, host, port = make_server(n_homes=3)
        try:
            with connect(host, port, QUERY) as session:
                session.root.first_child()
            status = fetch_status(host, port, prometheus=True)
            text = status["prometheus"]
            assert "# TYPE repro_server_sessions_total counter" \
                in text
            assert "# HELP repro_server_sessions_total" in text
            assert "# TYPE repro_server_request_ms histogram" in text
            assert 'repro_server_requests_total{op="open"} 1' in text
            assert "repro_server_lifetime_count{" in text
            # The probing connection itself is an admitted handler,
            # so the gauge is >= 1 at scrape time.
            assert "repro_server_sessions_active " in text
        finally:
            server.drain()

    def test_cli_status_table_and_exit_codes(self, capsys):
        from repro.cli import main

        server, host, port = make_server(n_homes=3)
        address = "%s:%d" % (host, port)
        try:
            with connect(host, port, QUERY) as session:
                session.root.first_child()
                assert main(["status", address]) == 0
                out = capsys.readouterr().out
                assert "serving" in out
                assert session.session_id in out
        finally:
            server.drain()
        # Unreachable daemon: exit 2.
        assert main(["status", address]) == 2

    def test_cli_status_json_and_prometheus(self, tmp_path, capsys):
        from repro.cli import main

        server, host, port = make_server(n_homes=3)
        address = "%s:%d" % (host, port)
        try:
            json_path = tmp_path / "status.json"
            assert main(["status", address, "--json",
                         str(json_path)]) == 0
            payload = json.loads(json_path.read_text())
            assert payload["draining"] is False
            capsys.readouterr()
            assert main(["status", address, "--prometheus"]) == 0
            out = capsys.readouterr().out
            assert "# TYPE repro_server_status_requests_total " \
                "counter" in out
        finally:
            server.drain()

    def test_cli_status_rejects_bad_address(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["status", "no-port-here"])
