"""Failure injection and robustness: protocol violations, malformed
inputs, unicode, deep documents -- and the resilience layer (retries,
circuit breakers, degradation) under scripted faults."""

import pytest

from repro.buffer import (
    BufferComponent,
    Fragments,
    LXPProtocolError,
    TreeLXPServer,
)
from repro.client import XMLElement
from repro.errors import (
    PermanentSourceError,
    TransientSourceError,
    is_transient,
)
from repro.mediator import MediatorError, MIXMediator
from repro.navigation import MaterializedDocument, materialize
from repro.runtime import (
    BreakerOpenError,
    CircuitBreaker,
    EngineConfig,
    ResilientCaller,
    RetryPolicy,
    resilient_server,
)
from repro.testing import (
    DeadLXPServer,
    FailureSchedule,
    FakeClock,
    FlakyChannel,
    FlakyLXPServer,
)
from repro.server.client import SocketChannel
from repro.server.daemon import ServerStats
from repro.server.session import Session
from repro.server.wire import FramePipe
from repro.wrappers import XMLFileWrapper
from repro.xmas import XMASSyntaxError, XMASTranslationError
from repro.xtree import Tree, XMLParseError, elem, leaf, parse_xml, to_xml

from .fixtures import hole, reply


class _ScriptedServer:
    """An LXP server answering from a fixed script (for misbehaviour)."""

    def __init__(self, script):
        self.script = script

    def get_root(self):
        return Fragments.hole(("root",))

    def fill(self, hole_id):
        return self.script[hole_id]


class TestMaliciousWrappers:
    def test_adjacent_holes_rejected(self):
        server = _ScriptedServer({
            ("root",): reply(("a", hole(1))),
            1: reply(hole(2), hole(3)),
        })
        buffer = BufferComponent(server)
        root = buffer.root()
        with pytest.raises(LXPProtocolError):
            buffer.down(root)

    def test_only_holes_rejected(self):
        server = _ScriptedServer({
            ("root",): reply(hole(7)),
        })
        buffer = BufferComponent(server)
        with pytest.raises(LXPProtocolError):
            buffer.root()

    def test_no_root_element_rejected(self):
        server = _ScriptedServer({("root",): reply()})
        buffer = BufferComponent(server)
        with pytest.raises(LXPProtocolError):
            buffer.root()

    def test_nested_violation_rejected(self):
        bad_child = reply(("a", "b", hole(1), hole(2)))
        server = _ScriptedServer({("root",): bad_child})
        buffer = BufferComponent(server)
        with pytest.raises(LXPProtocolError):
            buffer.root()

    def test_dead_end_holes_are_fine(self):
        # Empty replies are legal: the hole represented zero elements.
        server = _ScriptedServer({
            ("root",): reply(("a", hole(1))),
            1: reply(),
        })
        buffer = BufferComponent(server)
        assert materialize(buffer) == leaf("a")

    def test_unbounded_virtual_document_guard(self):
        """A wrapper can keep promising more siblings forever; the
        materialize() guard catches runaway exploration."""

        class Endless:
            def get_root(self):
                return Fragments.hole(0)

            def fill(self, hole_id):
                if hole_id == 0:
                    return reply(("r", hole(1)))
                return reply("x", hole(hole_id + 1))

        buffer = BufferComponent(Endless())
        with pytest.raises(RuntimeError):
            materialize(buffer, max_nodes=50)


class TestMediatorErrors:
    def test_unknown_source_at_prepare_time(self):
        med = MIXMediator()
        with pytest.raises(MediatorError):
            med.prepare("CONSTRUCT <a> $X {$X} </a> {} WHERE ghost p $X")

    def test_syntax_error_propagates(self):
        med = MIXMediator()
        with pytest.raises(XMASSyntaxError):
            med.prepare("CONSTRUCT <a> oops")

    def test_translation_error_propagates(self):
        med = MIXMediator()
        med.register_wrapper("s", XMLFileWrapper("s", "<r><a>1</a></r>"))
        with pytest.raises(XMASTranslationError):
            med.prepare("CONSTRUCT <a> $Q {$Q} </a> {} WHERE s r $X")

    def test_view_name_clash(self):
        med = MIXMediator()
        med.register_wrapper("s", XMLFileWrapper("s", "<r/>"))
        med.register_view("v", "CONSTRUCT <a> $X {$X} </a> {} "
                               "WHERE s _ $X")
        with pytest.raises(MediatorError):
            med.register_view("v", "CONSTRUCT <b> $X {$X} </b> {} "
                                   "WHERE s _ $X")


class TestUnicodeAndOddContent:
    def test_unicode_round_trip(self):
        xml = "<r><name>København 中文</name></r>"
        tree = parse_xml(xml)
        assert parse_xml(to_xml(tree)) == tree

    def test_unicode_through_the_stack(self):
        med = MIXMediator()
        med.register_wrapper("s", XMLFileWrapper(
            "s", "<r><x><n>été</n></x></r>"))
        answer = med.prepare(
            "CONSTRUCT <out> $N {$N} </out> {} WHERE s r.x.n._ $N"
        ).materialize()
        assert answer.child(0).label == "été"

    def test_whitespace_heavy_text(self):
        tree = parse_xml("<r>  spaced   out  </r>")
        assert tree.child(0).label == "spaced   out"

    def test_label_with_xml_metachars_escapes(self):
        tree = elem("r", "a < b & c > d")
        assert parse_xml(to_xml(tree)) == tree


class TestDeepDocuments:
    def _deep(self, depth):
        node = leaf("bottom")
        for _ in range(depth):
            node = Tree("n", [node])
        return Tree("src", [node])

    def test_deep_parse_and_serialize(self):
        deep = self._deep(300)
        assert parse_xml(to_xml(deep)) == deep

    def test_deep_navigation(self):
        doc = MaterializedDocument(self._deep(300))
        pointer = doc.root()
        depth = 0
        while (nxt := doc.down(pointer)) is not None:
            pointer = nxt
            depth += 1
        assert depth == 301
        assert doc.fetch(pointer) == "bottom"

    def test_deep_recursive_path_query(self):
        med = MIXMediator()
        med.register_source("s", MaterializedDocument(self._deep(150)))
        answer = med.prepare(
            "CONSTRUCT <out> $X {$X} </out> {} WHERE s n+._ $X"
        ).materialize()
        # one binding per depth where the leaf is reachable: only the
        # innermost '_' match is the 'bottom' leaf under each n-chain.
        assert any(c.label == "bottom" for c in answer.children)

    def test_deep_buffered_wrapper(self):
        deep = self._deep(200)
        buffer = BufferComponent(TreeLXPServer(deep, chunk_size=1,
                                               depth=1))
        assert materialize(buffer) == deep


# -- resilience: retries, breakers, degradation ------------------------

CATALOG_XML = ("<catalog>"
               + "".join("<book><title>T%d</title><price>%d</price>"
                         "</book>" % (i, 10 * i) for i in range(1, 5))
               + "</catalog>")
BOOKS_QUERY = ("CONSTRUCT <out> $B {$B} </out> {} "
               "WHERE s catalog.book $B")
WILD_QUERY = ("CONSTRUCT <out> $B {$B} </out> {} "
              "WHERE s catalog._ $B")


def _flaky_mediator(schedule, config=None, clock=None, xml=CATALOG_XML):
    med = MIXMediator(config or EngineConfig(),
                      clock=clock or FakeClock())
    med.register_wrapper(
        "s", FlakyLXPServer(
            XMLFileWrapper("s", xml,
                           chunk_size=med.config.chunk_size),
            schedule))
    return med


def _healthy_answer(query=BOOKS_QUERY, config=None):
    med = MIXMediator(config or EngineConfig())
    med.register_wrapper("s", XMLFileWrapper("s", CATALOG_XML))
    return med.prepare(query).materialize()


class TestErrorTaxonomy:
    def test_transient_subclasses_source_error(self):
        assert issubclass(TransientSourceError, Exception)
        assert is_transient(TransientSourceError("x"))

    def test_permanent_not_transient(self):
        assert not is_transient(PermanentSourceError("x"))

    def test_builtin_network_errors_are_transient(self):
        assert is_transient(ConnectionError("reset"))
        assert is_transient(TimeoutError("slow"))

    def test_other_errors_are_permanent(self):
        assert not is_transient(ValueError("nope"))
        assert not is_transient(RuntimeError("boom"))

    def test_substrate_errors_classify_permanent(self):
        from repro.oodb import OODBError
        from repro.relational import SchemaError, SQLError
        from repro.webstore import WebError
        for exc_type in (LXPProtocolError, OODBError, SchemaError,
                         SQLError, WebError):
            assert issubclass(exc_type, PermanentSourceError), exc_type
            assert not is_transient(exc_type("x"))


class TestRetryPolicy:
    def test_delays_are_deterministic(self):
        policy = RetryPolicy(max_attempts=4)
        first = [policy.delay_ms(i, key="s") for i in range(1, 4)]
        again = [policy.delay_ms(i, key="s") for i in range(1, 4)]
        assert first == again

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(max_attempts=8, base_delay_ms=10.0,
                             backoff=2.0, max_delay_ms=50.0, jitter=0.0)
        delays = [policy.delay_ms(i, key="s") for i in range(1, 7)]
        assert delays[:3] == [10.0, 20.0, 40.0]
        assert all(d == 50.0 for d in delays[3:])

    def test_jitter_stays_within_fraction(self):
        policy = RetryPolicy(base_delay_ms=100.0, backoff=1.0,
                             jitter=0.25)
        for attempt in range(1, 6):
            delay = policy.delay_ms(attempt, key="k")
            assert 75.0 <= delay <= 125.0

    def test_different_keys_decorrelate(self):
        policy = RetryPolicy(base_delay_ms=100.0, backoff=1.0,
                             jitter=0.5)
        delays = {policy.delay_ms(1, key="src%d" % i)
                  for i in range(8)}
        assert len(delays) > 1


class TestCircuitBreaker:
    def _breaker(self, clock, threshold=3, reset_ms=1000.0):
        return CircuitBreaker(failure_threshold=threshold,
                              reset_timeout_ms=reset_ms, clock=clock)

    def test_trips_after_threshold(self):
        clock = FakeClock()
        breaker = self._breaker(clock)
        for _ in range(3):
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.short_circuits == 1

    def test_success_resets_failure_count(self):
        clock = FakeClock()
        breaker = self._breaker(clock)
        for _ in range(2):
            breaker.allow()
            breaker.record_failure()
        breaker.allow()
        breaker.record_success()
        breaker.allow()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_probe_recovers(self):
        clock = FakeClock()
        breaker = self._breaker(clock, reset_ms=500.0)
        for _ in range(3):
            breaker.allow()
            breaker.record_failure()
        clock.advance(499.0)
        assert not breaker.allow()
        clock.advance(2.0)
        assert breaker.state == "half-open"
        assert breaker.allow()          # the single probe slot
        assert not breaker.allow()      # concurrent call still blocked
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = self._breaker(clock, reset_ms=500.0)
        for _ in range(3):
            breaker.allow()
            breaker.record_failure()
        clock.advance(501.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.opens == 2


class TestResilientCaller:
    def _caller(self, attempts=3, clock=None, breaker=None, **kw):
        policy = RetryPolicy(max_attempts=attempts, base_delay_ms=10.0,
                             jitter=0.0, **kw)
        return ResilientCaller("peer", policy=policy,
                               clock=clock or FakeClock(),
                               breaker=breaker)

    def test_retries_transient_until_success(self):
        schedule = FailureSchedule.first(2)
        caller = self._caller(attempts=3)

        def fn():
            err = schedule.next_failure()
            if err is not None:
                raise err
            return 42

        assert caller.call(fn) == 42
        assert caller.stats.retries == 2
        assert caller.stats.giveups == 0

    def test_permanent_failure_not_retried(self):
        calls = []

        def fn():
            calls.append(1)
            raise PermanentSourceError("gone")

        caller = self._caller(attempts=5)
        with pytest.raises(PermanentSourceError):
            caller.call(fn)
        assert len(calls) == 1
        assert caller.stats.retries == 0

    def test_transient_exhaustion_gives_up(self):
        clock = FakeClock()
        caller = self._caller(attempts=3, clock=clock)

        def fn():
            raise TransientSourceError("flaky")

        with pytest.raises(TransientSourceError):
            caller.call(fn)
        assert caller.stats.retries == 2
        assert caller.stats.giveups == 1
        assert len(clock.sleeps) == 2   # no sleep after the last try

    def test_deadline_bounds_cumulative_wait(self):
        clock = FakeClock()
        caller = self._caller(attempts=100, clock=clock,
                              deadline_ms=25.0, backoff=1.0)

        def fn():
            raise TransientSourceError("flaky")

        with pytest.raises(TransientSourceError):
            caller.call(fn)
        assert sum(clock.sleeps) <= 25.0
        assert caller.stats.retries < 99

    def test_breaker_short_circuits_calls(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=2,
                                 reset_timeout_ms=1000.0, clock=clock)
        caller = self._caller(attempts=1, clock=clock, breaker=breaker)

        def fn():
            raise TransientSourceError("flaky")

        for _ in range(2):
            with pytest.raises(TransientSourceError):
                caller.call(fn)
        with pytest.raises(BreakerOpenError):
            caller.call(fn)
        assert breaker.short_circuits == 1


class TestRetriesHealTheQuery:
    def test_retried_answer_is_byte_identical(self):
        baseline = to_xml(_healthy_answer())
        clock = FakeClock()
        med = _flaky_mediator(
            FailureSchedule.first(2),
            EngineConfig(retry_max_attempts=3), clock=clock)
        answer = med.prepare(BOOKS_QUERY).materialize()
        assert to_xml(answer) == baseline
        assert len(clock.sleeps) == 2   # backoff happened, faked

    def test_fail_fast_is_the_default(self):
        med = _flaky_mediator(FailureSchedule.first(1))
        with pytest.raises(TransientSourceError):
            med.prepare(BOOKS_QUERY).materialize()

    def test_permanent_fault_aborts_despite_retries(self):
        schedule = FailureSchedule(
            [PermanentSourceError("corrupt page")])
        med = _flaky_mediator(schedule,
                              EngineConfig(retry_max_attempts=5))
        with pytest.raises(PermanentSourceError):
            med.prepare(BOOKS_QUERY).materialize()
        assert schedule.calls == 1      # no second attempt

    def test_retry_counters_in_query_stats(self):
        med = _flaky_mediator(FailureSchedule.first(2),
                              EngineConfig(retry_max_attempts=3))
        result = med.prepare(BOOKS_QUERY)
        result.materialize()
        resilience = result.stats()["resilience"]
        assert resilience["retries"] == 2
        assert resilience["giveups"] == 0
        assert resilience["per_source"]["s"]["retries"] == 2

    def test_healthy_config_reports_no_resilience(self):
        med = MIXMediator()
        med.register_wrapper("s", XMLFileWrapper("s", CATALOG_XML))
        result = med.prepare(BOOKS_QUERY)
        result.materialize()
        assert "resilience" not in result.stats()


class TestDegradedAnswers:
    def _degrade_config(self, **kw):
        base = dict(chunk_size=1, retry_max_attempts=2,
                    on_source_failure="degrade")
        base.update(kw)
        return EngineConfig(**base)

    def test_mid_stream_failure_yields_partial_answer(self):
        med = _flaky_mediator(
            FailureSchedule([False, False, False], exhausted="fail"),
            self._degrade_config())
        result = med.prepare(BOOKS_QUERY)
        answer = result.materialize()
        titles = [c.child(0).child(0).label for c in answer.children]
        assert titles == ["T1", "T2"]
        assert result.stats()["resilience"]["degraded"] >= 1

    def test_wildcard_query_carries_the_placeholder(self):
        med = _flaky_mediator(
            FailureSchedule([False, False, False], exhausted="fail"),
            self._degrade_config())
        answer = med.prepare(WILD_QUERY).materialize()
        labels = [c.label for c in answer.children]
        assert "mix:error" in labels

    def test_client_api_flags_the_placeholder(self):
        med = _flaky_mediator(
            FailureSchedule([False, False, False], exhausted="fail"),
            self._degrade_config())
        root = med.query(WILD_QUERY)
        errors = root.find_errors()
        assert errors
        for error in errors:
            assert error.is_error
            info = error.error_info()
            assert info["source"] == "s"
            assert "injected" in info["reason"]

    def test_healthy_elements_are_not_errors(self):
        med = MIXMediator()
        med.register_wrapper("s", XMLFileWrapper("s", CATALOG_XML))
        root = med.query(BOOKS_QUERY)
        assert not root.is_error
        assert root.error_info() is None
        assert root.find_errors() == []

    def test_sibling_source_unaffected(self):
        med = MIXMediator(self._degrade_config(), clock=FakeClock())
        med.register_wrapper(
            "dead", DeadLXPServer(
                XMLFileWrapper("dead", CATALOG_XML, chunk_size=1)))
        med.register_wrapper(
            "alive", XMLFileWrapper(
                "alive", "<catalog><book><title>OK</title></book>"
                         "</catalog>", chunk_size=1))
        query = ("CONSTRUCT <out> $A {$A} $B {$B} </out> {} "
                 "WHERE dead _ $A AND alive catalog.book $B")
        result = med.prepare(query)
        text = to_xml(result.materialize())
        # the dead source degraded to a placeholder binding while the
        # healthy sibling still contributed its real answer
        assert "OK" in text
        assert "dead" in text
        assert result.stats()["resilience"]["per_source"]["dead"][
            "degraded"] >= 1


class TestNoHangGuarantee:
    def test_dead_source_fails_fast_without_degrade(self):
        clock = FakeClock()
        med = _flaky_mediator(FailureSchedule.always(),
                              EngineConfig(retry_max_attempts=3),
                              clock=clock)
        with pytest.raises(TransientSourceError):
            med.prepare(BOOKS_QUERY).materialize()
        assert len(clock.sleeps) == 2   # bounded attempts, no hang

    def test_dead_source_completes_in_degrade_mode(self):
        clock = FakeClock()
        med = _flaky_mediator(
            FailureSchedule.always(),
            EngineConfig(retry_max_attempts=2,
                         on_source_failure="degrade"),
            clock=clock)
        result = med.prepare(BOOKS_QUERY)
        answer = result.materialize()   # must terminate
        assert answer.label == "out"
        stats = result.stats()["resilience"]
        assert stats["giveups"] >= 1
        assert stats["degraded"] >= 1

    def test_breaker_stops_hammering_a_dead_source(self):
        clock = FakeClock()
        config = EngineConfig(chunk_size=1, retry_max_attempts=2,
                              on_source_failure="degrade",
                              breaker_threshold=2,
                              breaker_reset_ms=60000.0)
        schedule = FailureSchedule([False], exhausted="fail")
        med = _flaky_mediator(schedule, config, clock=clock)
        result = med.prepare(WILD_QUERY)
        result.materialize()
        per_source = result.stats()["resilience"]["per_source"]["s"]
        assert per_source["breaker_opens"] >= 1
        # once open, further holes are short-circuited, not attempted
        assert per_source["breaker_short_circuits"] >= 1
        # the breaker capped the source traffic: only the hole that
        # tripped it (plus the healthy first fill) reached the source
        assert schedule.calls <= 4

    def test_breaker_half_open_recovery_end_to_end(self):
        from repro.runtime import ResilientLXPServer, RetryPolicy
        clock = FakeClock()
        server = FlakyLXPServer(
            XMLFileWrapper("s", CATALOG_XML),
            FailureSchedule.first(1))
        wrapped = ResilientLXPServer(
            server, name="s",
            policy=RetryPolicy(max_attempts=1),
            breaker=CircuitBreaker(failure_threshold=1,
                                   reset_timeout_ms=100.0,
                                   clock=clock),
            clock=clock)
        with pytest.raises(TransientSourceError):
            BufferComponent(wrapped).root()
        assert wrapped.breaker.state == "open"
        with pytest.raises(BreakerOpenError):
            BufferComponent(wrapped).root()
        clock.advance(101.0)            # reset window elapses
        buffer = BufferComponent(wrapped)
        root = buffer.root()
        assert buffer.fetch(buffer.down(root)) == "catalog"
        assert wrapped.breaker.state == "closed"

    def test_breaker_only_config_is_pass_through(self):
        # resilience activates via retries / deadline / degrade; the
        # breaker rides along with them rather than by itself
        config = EngineConfig(breaker_threshold=1)
        server = XMLFileWrapper("s", CATALOG_XML)
        assert resilient_server(server, config) is server


class TestResilientChannel:
    """The remote seam: flaky round trips between client and mediator."""

    def _remote_root(self, schedule, config, clock):
        med = MIXMediator()
        med.register_wrapper("s", XMLFileWrapper("s", CATALOG_XML))
        document = med.prepare(BOOKS_QUERY).document
        session = Session("chan", document, EngineConfig(), clock,
                          ServerStats(), chunk_size=2, depth=2)
        channel = FlakyChannel(
            SocketChannel(FramePipe(session), session.root_wire),
            schedule)
        transport = resilient_server(channel, config, name="chan",
                                     clock=clock)
        buffer = BufferComponent(transport)
        return XMLElement(buffer, buffer.root())

    def test_flaky_channel_heals_with_retries(self):
        baseline = _healthy_answer()
        clock = FakeClock()
        root = self._remote_root(
            FailureSchedule([True, False, True]),
            EngineConfig(retry_max_attempts=3), clock)
        assert root.to_tree() == baseline
        assert clock.sleeps          # retries actually backed off

    def test_dead_channel_degrades_client_side(self):
        clock = FakeClock()
        root = self._remote_root(
            FailureSchedule([False, False], exhausted="fail"),
            EngineConfig(retry_max_attempts=2,
                         on_source_failure="degrade"), clock)
        tree = root.to_tree()
        assert tree.label == "out"
        found = root.find_errors()
        assert found and found[0].error_info()["source"] == "chan"
