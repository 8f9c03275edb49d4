"""The hardened session server: lifecycle, timeouts, admission,
budgets, deadlines, fault containment, and graceful drain.

Every test runs a real :class:`~repro.server.daemon.MediatorServer`
on an ephemeral loopback port.  Timeouts under test are configured
tiny (hundreds of ms); nothing here calls ``time.sleep`` -- waiting
is either a bounded socket operation or :func:`wait_until` polling a
counter with a short event timeout.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.bench.workloads import homes_and_schools
from repro.mediator.mix import MIXMediator
from repro.navigation.interface import NavigableDocument
from repro.navigation.materialized import MaterializedDocument
from repro.runtime.config import EngineConfig
from repro.server import (
    MediatorServer,
    ServerBusyError,
    ServerReplyError,
    connect,
)
from repro.server.wire import MalformedFrameError, decode_frame, exchange
from repro.testing.faults import FakeClock
from repro.xtree.path import MAX_CONDITIONS, MAX_NESTING
from repro.testing.transport import (
    StalledReader,
    abrupt_disconnect,
    open_raw,
    recv_reply_bytes,
    scripted_session,
    send_frame_bytes,
    send_garbage,
    send_truncated_frame,
    slow_loris,
)
from repro.testing.transport import _decode  # test-only convenience
from repro.wrappers import XMLFileWrapper

from .fixtures import long_where_clause, stacked_views, thread_ledger
from .test_remote_client import HOMES_XML, SCHOOLS_XML
from .test_remote_client import QUERY as FIG4_QUERY

QUERY = """
CONSTRUCT <result> <home> $A {$A} </home> {$H} </result> {}
WHERE homesSrc homes.home $H AND $H addr._ $A
"""


def wait_until(predicate, timeout_s=5.0, message="condition"):
    """Poll ``predicate`` with a short event timeout until true."""
    gate = threading.Event()
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        gate.wait(0.01)
    raise AssertionError("timed out waiting for %s" % message)


def _scraped(text, metric):
    """The sum of every sample of ``metric`` (a bare name, or a name
    with its label set) in a Prometheus exposition; 0 when absent."""
    total = 0.0
    for line in text.splitlines():
        name, _, value = line.rpartition(" ")
        if not line.startswith("#") and (
                name == metric or name.startswith(metric + "{")):
            total += float(value)
    return total


def make_server(n_homes=6, config=None, clock=None, **overrides):
    overrides.setdefault("serve_port", 0)
    config = config or EngineConfig(**overrides)
    mediator = MIXMediator(config)
    tree = homes_and_schools(n_homes)["homesSrc"]
    mediator.register_source("homesSrc", MaterializedDocument(tree))
    server = MediatorServer(mediator, clock=clock)
    host, port = server.start()
    return server, host, port


class TestLifecycle:
    def test_open_navigate_close_roundtrip(self):
        server, host, port = make_server(n_homes=5)
        try:
            with connect(host, port, QUERY) as session:
                homes = [child.tag for child in
                         session.root.children()]
                assert homes == ["home"] * 5
                assert session.ping()
                report = session.server_stats()
                assert report["session"]["fills"] >= 1
                assert report["server"]["sessions_opened"] == 1
            wait_until(lambda: server.active_sessions == 0,
                       message="session teardown")
            snapshot = server.stats.snapshot()
            assert snapshot["sessions_opened"] == 1
            assert snapshot["sessions_closed"] == 1
        finally:
            server.drain()

    def test_answer_matches_in_process_materialization(self):
        server, host, port = make_server(n_homes=4)
        try:
            expected = server.mediator.prepare(QUERY).materialize()
            with connect(host, port, QUERY) as session:
                got = session.root.to_tree()
            assert got == expected
        finally:
            server.drain()

    def test_raw_wire_dialogue(self):
        server, host, port = make_server(n_homes=3)
        try:
            sock = open_raw(host, port)
            try:
                send_frame_bytes(sock, {"op": "open", "query": QUERY})
                opened = _decode(recv_reply_bytes(sock))
                assert opened["ok"] and isinstance(opened["root"], int)
                send_frame_bytes(sock, {"op": "fill",
                                        "hole": opened["root"]})
                filled = _decode(recv_reply_bytes(sock))
                assert filled["ok"]
                assert filled["fragments"][0][0] == "e"
                send_frame_bytes(sock, {"op": "close"})
                closed = _decode(recv_reply_bytes(sock))
                assert closed["ok"] and closed["closed"]
            finally:
                sock.close()
        finally:
            server.drain()

    def test_bad_query_is_typed_and_contained(self):
        server, host, port = make_server()
        try:
            with pytest.raises(ServerReplyError) as excinfo:
                connect(host, port, "this is not XMAS")
            assert excinfo.value.code == "mix:query"
            # The server survived and still serves good queries.
            with connect(host, port, QUERY) as session:
                assert session.ping()
        finally:
            server.drain()

    def test_deeply_nested_query_is_a_query_error(self, tmp_path):
        """1 000 nested elements (7 KB of text, far under the frame
        cap) used to overflow the parser's stack: an internal kill
        with an incident dump, for the client's own mistake."""
        server, host, port = make_server(
            serve_incident_dir=str(tmp_path))
        try:
            deep = ("CONSTRUCT " + "<a> " * 1000 + "$H {$H} "
                    + "</a> " * 999 + "</a> {} "
                    "WHERE homesSrc homes.home $H")
            with pytest.raises(ServerReplyError) as excinfo:
                connect(host, port, deep)
            assert excinfo.value.code == "mix:query"
            assert "XMASSyntaxError" in str(excinfo.value)
            counts = server.stats.snapshot()
            assert counts["query_rejects"] == 1
            assert counts["internal_kills"] == 0
            assert not list(tmp_path.iterdir())
        finally:
            server.drain()

    def test_long_where_clause_is_a_query_error(self, tmp_path):
        """400 conditions used to overflow the optimizer's stack: an
        internal kill with an incident dump."""
        server, host, port = make_server(
            serve_incident_dir=str(tmp_path))
        try:
            with pytest.raises(ServerReplyError) as excinfo:
                connect(host, port, long_where_clause(400))
            assert excinfo.value.code == "mix:query"
            assert "XMASSyntaxError" in str(excinfo.value)
            counts = server.stats.snapshot()
            assert counts["query_rejects"] == 1
            assert counts["internal_kills"] == 0
            assert not list(tmp_path.iterdir())
        finally:
            server.drain()

    def test_query_composed_past_the_condition_limit_is_a_query_error(
            self, tmp_path):
        """Three stacked 100-condition texts used to open a session
        whose first navigation overflowed the stack under
        ``observe_operators``: an internal kill with an incident
        dump."""
        server, host, port = make_server(
            observe_operators=True, serve_incident_dir=str(tmp_path))
        try:
            query = stacked_views(server.mediator, 100)
            with pytest.raises(ServerReplyError) as excinfo:
                with connect(host, port, query) as session:
                    session.root.first_child()
            assert excinfo.value.code == "mix:query"
            assert "MediatorError" in str(excinfo.value)
            counts = server.stats.snapshot()
            assert counts["query_rejects"] == 1
            assert counts["internal_kills"] == 0
            assert not list(tmp_path.iterdir())
        finally:
            server.drain()

    def test_query_at_the_condition_limit_is_served(self):
        server, host, port = make_server(n_homes=3)
        try:
            with connect(host, port,
                         long_where_clause(MAX_CONDITIONS)) as session:
                assert session.root.first_child().tag == "home"
        finally:
            server.drain()

    def test_query_at_the_nesting_limit_is_served(self):
        server, host, port = make_server(n_homes=3)
        try:
            query = ("CONSTRUCT " + "<a> " * MAX_NESTING + "$H {$H} "
                     + "</a> " * (MAX_NESTING - 1) + "</a> {} "
                     "WHERE homesSrc homes.home $H")
            expected = server.mediator.prepare(query).materialize()
            with connect(host, port, query) as session:
                assert session.root.to_tree() == expected
        finally:
            server.drain()


class TestAdmissionControl:
    def test_busy_rejection_and_recovery(self):
        server, host, port = make_server(serve_max_sessions=1)
        try:
            first = connect(host, port, QUERY)
            with pytest.raises(ServerBusyError):
                connect(host, port, QUERY)
            assert server.stats.snapshot()["rejected_busy"] == 1
            first.close()
            wait_until(lambda: server.active_sessions == 0,
                       message="capacity to free up")
            with connect(host, port, QUERY) as session:
                assert session.ping()
        finally:
            server.drain()


class TestTimeoutsAndBudgets:
    def test_slow_loris_falls_to_idle_timeout(self):
        server, host, port = make_server(serve_idle_timeout_ms=150.0)
        try:
            reply = slow_loris(host, port)
            assert reply is not None \
                and reply["error"] == "mix:idle"
            wait_until(lambda: server.stats.snapshot()
                       ["idle_kills"] == 1, message="idle kill")
        finally:
            server.drain()

    def test_fill_budget_is_enforced(self):
        server, host, port = make_server(
            n_homes=8, serve_session_max_fills=1, chunk_size=2)
        try:
            sock = open_raw(host, port)
            try:
                send_frame_bytes(sock, {"op": "open", "query": QUERY})
                opened = _decode(recv_reply_bytes(sock))
                send_frame_bytes(sock, {"op": "fill",
                                        "hole": opened["root"]})
                first = _decode(recv_reply_bytes(sock))
                assert first["ok"]
                send_frame_bytes(sock, {"op": "fill",
                                        "hole": opened["root"]})
                second = _decode(recv_reply_bytes(sock))
                assert second["error"] == "mix:budget"
            finally:
                sock.close()
            wait_until(lambda: server.stats.snapshot()
                       ["budget_kills"] == 1, message="budget kill")
        finally:
            server.drain()

    def test_request_deadline_cuts_runaway_navigation(self):
        clock = FakeClock()

        class SlowNavigation(NavigableDocument):
            """Every navigation costs 50 virtual ms."""

            def __init__(self, inner):
                self.inner = inner

            def root(self):
                clock.advance(50.0)
                return self.inner.root()

            def down(self, pointer):
                clock.advance(50.0)
                return self.inner.down(pointer)

            def right(self, pointer):
                clock.advance(50.0)
                return self.inner.right(pointer)

            def fetch(self, pointer):
                return self.inner.fetch(pointer)

        config = EngineConfig(serve_port=0,
                              serve_request_deadline_ms=120.0)
        mediator = MIXMediator(config)
        tree = homes_and_schools(6)["homesSrc"]
        mediator.register_source(
            "homesSrc", SlowNavigation(MaterializedDocument(tree)))
        server = MediatorServer(mediator, clock=clock)
        host, port = server.start()
        try:
            sock = open_raw(host, port)
            try:
                send_frame_bytes(sock, {"op": "open", "query": QUERY})
                opened = _decode(recv_reply_bytes(sock))
                assert opened["ok"]
                send_frame_bytes(sock, {"op": "fill",
                                        "hole": opened["root"]})
                reply = _decode(recv_reply_bytes(sock))
                assert reply["error"] == "mix:deadline"
            finally:
                sock.close()
            assert server.stats.snapshot()["deadline_kills"] == 1
        finally:
            server.drain()

    def test_stalled_reader_falls_to_send_timeout(self):
        server, host, port = make_server(
            n_homes=800, serve_send_timeout_ms=300.0,
            serve_send_buffer_bytes=4096,
            serve_max_frame_bytes=8 << 20,
            chunk_size=2000, depth=6)
        try:
            with StalledReader(host, port) as reader:
                opened = reader.open(QUERY)
                assert opened["ok"]
                reader.request_and_stall(opened["root"])
                wait_until(lambda: server.stats.snapshot()
                           ["stalled_kills"] == 1,
                           timeout_s=10.0, message="stalled kill")
            # The fill reply never reached the client: one scrape's
            # exposition counters agree with the lifetime counters
            # client reconciliation reads, which count only delivered
            # replies (the open).
            text = server.prometheus_text()
            assert _scraped(text, "repro_server_fills_total") \
                == _scraped(text, 'repro_server_lifetime_count'
                                  '{counter="fills"}') == 0
            assert _scraped(text, "repro_server_requests_total") \
                == _scraped(text, 'repro_server_lifetime_count'
                                  '{counter="requests"}') == 1
        finally:
            server.drain()


@pytest.fixture
def client_sockets(monkeypatch):
    """Every client socket the test opens, in order."""
    created = []
    real = socket.create_connection

    def recording(*args, **kwargs):
        created.append(real(*args, **kwargs))
        return created[-1]

    monkeypatch.setattr(socket, "create_connection", recording)
    return created


class TestClientSocketLifetime:
    """A typed error reply must not strand the client's socket."""

    def test_killed_session_abandons_the_channel(self, client_sockets):
        server, host, port = make_server(
            n_homes=8, serve_session_max_fills=1, chunk_size=2)
        try:
            # connect() spends the one budgeted fill on the root.
            session = connect(host, port, QUERY)
            with pytest.raises(ServerReplyError) as excinfo:
                session.root.to_tree()
            assert excinfo.value.code == "mix:budget"
            assert session.channel.closed
            assert [sock.fileno() for sock in client_sockets] == [-1]
            session.close()  # idempotent on an abandoned channel
        finally:
            server.drain()

    def test_failed_connect_closes_its_socket(self, client_sockets):
        """The reproduction from the field: the root fill inside
        connect() overruns a 1ms deadline, so no session ever
        reaches the caller -- who therefore cannot close it."""
        clock = FakeClock()

        class Ticking(NavigableDocument):
            def __init__(self, inner):
                self.inner = inner

            def root(self):
                clock.advance(50.0)
                return self.inner.root()

            def down(self, pointer):
                clock.advance(50.0)
                return self.inner.down(pointer)

            def right(self, pointer):
                clock.advance(50.0)
                return self.inner.right(pointer)

            def fetch(self, pointer):
                return self.inner.fetch(pointer)

        mediator = MIXMediator(EngineConfig(
            serve_port=0, serve_request_deadline_ms=1.0))
        mediator.register_source("homesSrc", Ticking(
            MaterializedDocument(homes_and_schools(6)["homesSrc"])))
        server = MediatorServer(mediator, clock=clock)
        host, port = server.start()
        try:
            with pytest.raises(ServerReplyError) as excinfo:
                connect(host, port, QUERY)
            assert excinfo.value.code == "mix:deadline"
            assert [sock.fileno() for sock in client_sockets] == [-1]
        finally:
            server.drain()


class TestThreadLedger:
    """Every thread a session starts -- its ``mix-session`` handler on
    the daemon -- ends with the session, and the client's socket is
    closed, on every exit path and without a GC's help."""

    def test_remote_session_close_ends_the_session_thread(
            self, client_sockets):
        server, host, port = make_server(n_homes=12, chunk_size=2)
        try:
            with thread_ledger() as ledger:
                session = connect(host, port, QUERY,
                                  config=EngineConfig(prefetch=2))
                assert session.root.first_child().tag == "home"
                session.close()
                assert [sock.fileno() for sock in client_sockets] \
                    == [-1]
                assert ledger.started == ["mix-session"]
                assert ledger.leaked() == []
                # An unfilled hole is now a plain demand fill on the
                # closed channel.
                with pytest.raises(ServerReplyError) as excinfo:
                    session.root.to_tree()
                assert excinfo.value.code == "mix:closed"
                session.close()  # idempotent
        finally:
            server.drain()

    def test_failed_connect_ends_the_session_thread(
            self, client_sockets, monkeypatch):
        """No session reaches the caller, so nobody else could."""
        server, host, port = make_server(n_homes=12, chunk_size=2)

        def broken_element(buffer, pointer):
            # the root fill and its look-ahead have landed
            assert buffer.prefetch_stats.prefetch_fills
            raise RuntimeError("no element for you")

        monkeypatch.setattr("repro.server.client.XMLElement",
                            broken_element)
        try:
            with thread_ledger() as ledger:
                with pytest.raises(RuntimeError):
                    connect(host, port, QUERY,
                            config=EngineConfig(prefetch=2))
                assert [sock.fileno() for sock in client_sockets] \
                    == [-1]
                assert ledger.started == ["mix-session"]
                assert ledger.leaked() == []
        finally:
            server.drain()

    def test_protocol_kill_ends_the_session_thread(self,
                                                   client_sockets):
        server, host, port = make_server()
        try:
            with thread_ledger() as ledger:
                reply = send_garbage(host, port)
                assert reply is not None \
                    and reply["error"] == "mix:protocol"
                assert [sock.fileno() for sock in client_sockets] \
                    == [-1]
                assert ledger.started == ["mix-session"]
                assert ledger.leaked() == []
            assert server.stats.snapshot()["protocol_kills"] == 1
        finally:
            server.drain()


class TestFaultContainment:
    def test_garbage_frame_kills_only_its_session(self):
        server, host, port = make_server()
        try:
            reply = send_garbage(host, port)
            assert reply is not None \
                and reply["error"] == "mix:protocol"
            wait_until(lambda: server.stats.snapshot()
                       ["protocol_kills"] == 1,
                       message="protocol kill")
            with connect(host, port, QUERY) as session:
                assert session.ping()
        finally:
            server.drain()

    def test_oversized_frame_is_refused(self):
        server, host, port = make_server(serve_max_frame_bytes=256)
        try:
            sock = open_raw(host, port)
            try:
                # A length prefix far beyond the ceiling.
                sock.sendall(b"\x7f\xff\xff\xff")
                reply = _decode(recv_reply_bytes(sock))
                assert reply["error"] == "mix:protocol"
            finally:
                sock.close()
        finally:
            server.drain()

    def test_mid_frame_disconnect_is_contained(self):
        server, host, port = make_server()
        try:
            session_id = abrupt_disconnect(host, port, QUERY)
            assert session_id
            wait_until(
                lambda: (server.stats.snapshot()["protocol_kills"]
                         + server.stats.snapshot()
                         ["disconnect_kills"]) >= 1,
                message="disconnect containment")
            with connect(host, port, QUERY) as session:
                assert session.ping()
        finally:
            server.drain()

    def test_survivors_are_byte_identical_under_faults(self):
        """The golden-trace check: a well-behaved session's raw reply
        bytes are unchanged by misbehaving neighbours."""
        server, host, port = make_server(n_homes=6, chunk_size=2)
        try:
            control = scripted_session(host, port, QUERY, fills=3)
            assert all(control)

            faults = []
            for attack in (lambda: send_garbage(host, port),
                           lambda: send_truncated_frame(host, port),
                           lambda: abrupt_disconnect(host, port,
                                                     QUERY)):
                thread = threading.Thread(target=attack, daemon=True)
                faults.append(thread)
                thread.start()
            under_attack = scripted_session(host, port, QUERY,
                                            fills=3)
            for thread in faults:
                thread.join(5.0)
            # Session ids are a server-global serial, so the open
            # reply legitimately differs; every navigation reply --
            # fragments, hole numbering, close -- must be identical.
            assert under_attack[1:] == control[1:]
            assert _decode(under_attack[0])["ok"]
            # And the server is still healthy afterwards.
            recovered = scripted_session(host, port, QUERY, fills=3)
            assert recovered[1:] == control[1:]
        finally:
            server.drain()


class TestWireIntegers:
    """Granularity and speculation are JSON integers, checked where
    the frame arrives: anything else is the client's protocol fault,
    never an internal error of the server's."""

    @staticmethod
    def _dialogue(host, port, *requests):
        """The raw replies to ``requests``, sent on one connection."""
        sock = open_raw(host, port)
        try:
            return [exchange(sock, request, 5000.0)[0]
                    for request in requests]
        finally:
            sock.close()

    @pytest.mark.parametrize("field, value", [
        ("chunk_size", "4"), ("chunk_size", True), ("depth", 2.5)])
    def test_open_refuses_a_non_integer_granularity(self, field,
                                                     value):
        server, host, port = make_server()
        try:
            (reply,) = self._dialogue(host, port, {
                "op": "open", "query": QUERY, field: value})
            assert reply["error"] == "mix:protocol"
            assert field in reply["detail"]
            counts = server.stats.snapshot()
            assert counts["protocol_kills"] == 1
            assert counts["internal_kills"] == 0
            assert server.recorder.incidents[-1]["reason"] \
                == "protocol"
        finally:
            server.drain()

    def test_zero_granularity_stays_a_query_error(self):
        server, host, port = make_server()
        try:
            (reply,) = self._dialogue(host, port, {
                "op": "open", "query": QUERY, "chunk_size": 0})
            assert reply["error"] == "mix:query"
            assert "ConfigError" in reply["detail"]
            assert server.stats.snapshot()["query_rejects"] == 1
        finally:
            server.drain()

    def test_nested_json_frame_is_a_protocol_fault(self, monkeypatch):
        """A 200 KB ``{"op":[[[...]]]}`` frame overflows the JSON
        decoder's stack: it used to kill the handler thread past the
        FAULTS table, with a bare EOF for the peer and no kill
        counted."""
        escaped = []
        monkeypatch.setattr(threading, "excepthook", escaped.append)
        server, host, port = make_server()
        try:
            depth = 100000
            body = b'{"op":' + b"[" * depth + b"]" * depth + b"}"
            frame = len(body).to_bytes(4, "big") + body
            # the client decodes a hostile reply the same way
            with pytest.raises(MalformedFrameError):
                decode_frame(frame)
            reply = send_garbage(host, port, frame)
            assert reply is not None \
                and reply["error"] == "mix:protocol"
            wait_until(lambda: server.stats.snapshot()
                       ["protocol_kills"] == 1,
                       message="protocol kill")
            with connect(host, port, QUERY) as session:
                assert session.ping()
        finally:
            server.drain()
        assert escaped == []

    def test_fill_batch_refuses_a_boolean_speculate(self):
        server, host, port = make_server()
        try:
            opened, reply = self._dialogue(
                host, port, {"op": "open", "query": QUERY},
                {"op": "fill_batch", "holes": [1], "speculate": True})
            assert opened["ok"] and opened["root"] == 1
            assert reply["error"] == "mix:protocol"
            assert "speculate" in reply["detail"]
            assert server.stats.snapshot()["protocol_kills"] == 1
        finally:
            server.drain()


class TestTwoReadingsAgree:
    """A remote client's channel counters and its ``channel_*``
    metrics series are two readings of one set of round trips, on
    both remote paths; the daemon's ``ServerStats`` and its
    ``server_*`` series are two readings of one set of replies."""

    @staticmethod
    def _assert_channel_readings_agree(metrics, name, stats):
        channel = "channel=" + name
        assert stats.messages > 0
        assert metrics["channel_round_trips_total"]["series"][
            channel] == stats.messages
        assert metrics["channel_commands_total"]["series"][
            channel] == stats.commands

    def test_in_process_session(self):
        mediator = MIXMediator(EngineConfig())
        tree = homes_and_schools(6)["homesSrc"]
        mediator.register_source("homesSrc", MaterializedDocument(tree))
        result = mediator.prepare(QUERY)
        root, stats = result.connect_remote(chunk_size=2, depth=2)
        root.to_tree()
        self._assert_channel_readings_agree(
            result.context.metrics_snapshot(), "remote#1", stats)

    def test_tcp_session(self):
        config = EngineConfig(serve_port=0, batch_navigations=True,
                              prefetch=2)
        server, host, port = make_server(config=config)
        try:
            with connect(host, port, QUERY, config=config,
                         chunk_size=2, depth=2) as session:
                session.root.to_tree()
                stats = session.stats
                metrics = session.context.metrics_snapshot()
            self._assert_channel_readings_agree(metrics, "remote#1",
                                                stats)
            wait_until(lambda: server.stats.snapshot()
                       ["sessions_closed"] == 1,
                       message="the session's close")
            fills = server.stats.snapshot()["fills"]
            assert fills > 0
            assert _scraped(server.prometheus_text(),
                            "repro_server_fills_total") == fills
        finally:
            server.drain()


def _series_count(snapshot):
    return sum(len(metric["series"]) for metric in snapshot.values())


def _sample_count(text):
    return sum(1 for line in text.splitlines()
               if not line.startswith("#"))


class TestBoundedSeries:
    """A long-lived daemon's scrapes stay the size of its counters:
    serving more sessions adds no series to the mediator's or the
    daemon's exposition (per-session series used to pile up under the
    mediator, four per session and never dropped)."""

    def test_scraped_series_do_not_grow_with_sessions(self):
        mediator = MIXMediator(EngineConfig(serve_port=0))
        for name, xml in (("homesSrc", HOMES_XML),
                          ("schoolsSrc", SCHOOLS_XML)):
            mediator.register_wrapper(name, XMLFileWrapper(name, xml))
        server = MediatorServer(mediator)
        host, port = server.start()
        counts = {}
        served = 0
        try:
            for sessions in (1, 10, 40):
                while served < sessions:
                    with connect(host, port, FIG4_QUERY) as session:
                        session.root.to_tree()
                    served += 1
                wait_until(lambda: server.stats.snapshot()
                           ["sessions_closed"] == served,
                           message="%d closed sessions" % served)
                counts[sessions] = (
                    _series_count(mediator.runtime.metrics_snapshot()),
                    _sample_count(server.prometheus_text()))
        finally:
            server.drain()
        assert counts[1][0] > 0
        assert counts[1] == counts[10] == counts[40], counts


class TestDrain:
    def test_drain_notifies_idle_sessions_and_stops_accepting(self):
        server, host, port = make_server()
        try:
            sock = open_raw(host, port, timeout_ms=5000.0)
            send_frame_bytes(sock, {"op": "open", "query": QUERY})
            opened = _decode(recv_reply_bytes(sock))
            assert opened["ok"]

            clean = server.drain()
            assert clean
            notice = _decode(recv_reply_bytes(sock))
            assert notice is not None \
                and notice["error"] == "mix:draining"
            sock.close()
            with pytest.raises(OSError):
                open_raw(host, port, timeout_ms=500.0)
            assert server.stats.snapshot()["drained"] >= 1
        finally:
            server.drain()

    def test_drain_lets_inflight_requests_finish(self):
        server, host, port = make_server(n_homes=8)
        session = connect(host, port, QUERY)
        try:
            results = []

            def browse():
                results.append([child.tag for child
                                in session.root.children()])

            browser = threading.Thread(target=browse, daemon=True)
            browser.start()
            browser.join(5.0)
            assert server.drain()
            assert results == [["home"] * 8]
        finally:
            session.close()

    def test_drain_answers_an_inflight_request_before_the_notice(self):
        """Only a connection's handler thread writes to it: a fill
        that is navigating when ``drain()`` begins is answered with
        its own fragments, *then* told ``mix:draining``, then closed
        -- and the daemon counts exactly what the client was
        answered.  A notice written by the draining thread instead
        would land in place of that reply."""
        parked, release = threading.Event(), threading.Event()

        class Gated(NavigableDocument):
            """Parks the first ``down`` after ``armed`` is set."""

            def __init__(self, inner):
                self.inner = inner
                self.armed = False

            def root(self):
                return self.inner.root()

            def down(self, pointer):
                if self.armed:
                    self.armed = False
                    parked.set()
                    assert release.wait(10.0)
                return self.inner.down(pointer)

            def right(self, pointer):
                return self.inner.right(pointer)

            def fetch(self, pointer):
                return self.inner.fetch(pointer)

        mediator = MIXMediator(EngineConfig(serve_port=0))
        gated = Gated(MaterializedDocument(
            homes_and_schools(3)["homesSrc"]))
        mediator.register_source("homesSrc", gated)
        server = MediatorServer(mediator)
        host, port = server.start()
        outcome = []
        drainer = threading.Thread(
            target=lambda: outcome.append(server.drain()), daemon=True)
        busy = open_raw(host, port, timeout_ms=10000.0)
        idle = open_raw(host, port, timeout_ms=10000.0)
        try:
            # ``busy`` is admitted first, so drain() reaches it first.
            send_frame_bytes(busy, {"op": "open", "query": QUERY})
            opened = _decode(recv_reply_bytes(busy))
            assert opened["ok"]
            send_frame_bytes(idle, {"op": "open", "query": QUERY})
            assert _decode(recv_reply_bytes(idle))["ok"]
            gated.armed = True
            send_frame_bytes(busy, {"op": "fill",
                                    "hole": opened["root"]})
            assert parked.wait(10.0)  # the fill is inside _dispatch
            drainer.start()
            # The idle session is told and closed -- so drain() is
            # past the busy one, whose fill is still parked.
            assert _decode(recv_reply_bytes(idle))["error"] \
                == "mix:draining"
            assert recv_reply_bytes(idle) == b""
            assert server.draining
            release.set()
            frames = []
            while True:
                raw = recv_reply_bytes(busy)
                if not raw:
                    break
                frames.append(_decode(raw))
            drainer.join(10.0)
            assert outcome == [True]
            assert [frame.get("error") for frame in frames] \
                == [None, "mix:draining"]
            assert frames[0]["ok"] and frames[0]["fragments"]
            stats = server.stats.snapshot()
            # open x2 + the one fill: every request got its own reply
            assert (stats["requests"], stats["fills"]) == (3, 1)
            assert stats["drained"] == 2
        finally:
            release.set()
            busy.close()
            idle.close()
            server.drain()

    def test_drain_is_idempotent(self):
        server, _, _ = make_server()
        assert server.drain()
        assert server.drain()

    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--workload", "homes:5", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env, text=True)
        try:
            line = process.stdout.readline().strip()
            assert line.startswith("serving "), line
            _, host, port_text = line.split()
            # One live session across the SIGTERM, to prove drain
            # handles real traffic, not just an empty server.
            session = connect(host, int(port_text), QUERY)
            assert session.ping()
            process.send_signal(signal.SIGTERM)
            out, err = process.communicate(timeout=30)
            assert process.returncode == 0, (out, err)
            assert "drained clean=True" in out
            session.close()
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
