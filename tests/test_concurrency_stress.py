"""Deterministic concurrency stress tests.

Several client sessions browse shared sources at once, with scripted
transient failures and a shared fake clock, exercising every lock
added for batched/concurrent navigation:

* no deadlock -- every worker joins within a hard wall-clock bound
  (enforced in-test with ``Thread.join(timeout)`` so the guard works
  even where pytest-timeout is not installed; CI adds a belt-and-
  braces ``@pytest.mark.timeout``);
* no duplicate hole fills -- each spliced hole id lands in an open
  tree exactly once per session;
* stats invariants -- ``demand_fills + prefetch_fills`` equals the
  buffer's fill count, and a channel never uses more round trips than
  navigation commands.

Failures are injected through :class:`FailureSchedule`, whose step
consumption is atomic: exactly the scripted number of faults is
injected no matter how the threads interleave.
"""

import sys
import threading

import pytest

from repro.buffer import BufferComponent, TreeLXPServer
from repro.navigation import MaterializedDocument, materialize
from repro.runtime import RetryPolicy
from repro.runtime.resilience import ResilientLXPServer
from repro.testing import FailureSchedule, FakeClock, FlakyLXPServer
from repro.wrappers.base import buffered
from repro.xtree import Tree, elem

from .fixtures import homes_of_size

JOIN_TIMEOUT_S = 30.0
SESSIONS = 4


def _homes_tree(n_homes):
    return homes_of_size(n_homes)["homesSrc"]


def _run_sessions(worker, n=SESSIONS):
    """Run ``worker(index)`` in ``n`` threads; fail on deadlock or any
    worker exception."""
    errors = []
    barrier = threading.Barrier(n)

    def body(index):
        try:
            barrier.wait(timeout=JOIN_TIMEOUT_S)
            worker(index)
        except BaseException as err:  # noqa: BLE001 - reported below
            errors.append(err)

    threads = [threading.Thread(target=body, args=(i,), daemon=True)
               for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=JOIN_TIMEOUT_S)
    stuck = [t for t in threads if t.is_alive()]
    assert not stuck, "deadlock: %d session(s) still running" % len(stuck)
    if errors:
        raise errors[0]
    return errors


def _scan_all(buffer):
    """Depth-first scan of the whole buffered document, label list."""
    labels = []

    def walk(pointer):
        labels.append(buffer.fetch(pointer))
        child = buffer.down(pointer)
        while child is not None:
            walk(child)
            child = buffer.right(child)

    walk(buffer.root())
    return labels


class _SpliceAudit:
    """Record every splice of a buffer; duplicate hole ids are the
    'double fill' bug the prefetcher's in-flight table must prevent."""

    def __init__(self, buffer):
        self.seen = []
        self._lock = threading.Lock()
        original = buffer._splice

        def audited(hole, fragments):
            with self._lock:
                self.seen.append(buffer._hole_ids[hole])
            original(hole, fragments)

        buffer._splice = audited

    def assert_no_duplicates(self):
        assert len(self.seen) == len(set(self.seen)), (
            "hole filled twice: %r"
            % [h for h in set(self.seen) if self.seen.count(h) > 1])


@pytest.mark.timeout(60)
class TestSharedSourceStress:
    def _expected_labels(self):
        server = TreeLXPServer(_homes_tree(12), chunk_size=3, depth=2)
        return _scan_all(BufferComponent(server))

    def test_concurrent_sessions_with_flaky_shared_source(self):
        """Each session owns a buffer; all share one flaky LXP server,
        one failure schedule and one fake clock."""
        expected = self._expected_labels()
        clock = FakeClock()
        schedule = FailureSchedule.first(SESSIONS * 3)
        tree = _homes_tree(12)
        flaky = FlakyLXPServer(
            TreeLXPServer(tree, chunk_size=3, depth=2), schedule)
        # The schedule is shared: under an adversarial interleaving a
        # single operation may absorb every scripted failure, so the
        # per-operation retry budget must exceed the total.
        policy = RetryPolicy(max_attempts=SESSIONS * 3 + 2,
                             base_delay_ms=1.0)
        audits = []
        results = [None] * SESSIONS

        def session(index):
            resilient = ResilientLXPServer(
                flaky, name="shared#%d" % index,
                policy=policy, clock=clock)
            buffer = buffered(resilient)
            audits.append(_SpliceAudit(buffer))
            results[index] = _scan_all(buffer)

        _run_sessions(session)
        assert results == [expected] * SESSIONS
        for audit in audits:
            audit.assert_no_duplicates()
        assert schedule.failures == SESSIONS * 3

    def test_prefetch_fill_accounting_balances(self):
        """demand_fills + prefetch_fills == buffer fills, per session,
        with every session looking ahead at once."""
        tree = _homes_tree(16)
        buffers = []

        def session(index):
            server = TreeLXPServer(tree, chunk_size=2, depth=1)
            buffer = buffered(server, prefetch=3)
            buffers.append(buffer)
            _scan_all(buffer)

        _run_sessions(session)
        for buffer in buffers:
            pf = buffer.prefetch_stats
            assert pf.prefetch_fills
            assert pf.demand_fills + pf.prefetch_fills \
                == buffer.stats.fills

    def test_batched_sessions_never_exceed_one_message_per_command(self):
        """Round trips <= commands for every concurrent batched
        session (shared metered channel semantics)."""
        from repro.mediator import MIXMediator
        from repro.navigation import MaterializedDocument
        from repro.runtime import EngineConfig

        tree = _homes_tree(10)
        stats_list = []
        lock = threading.Lock()

        def session(index):
            med = MIXMediator(EngineConfig(batch_navigations=True,
                                           prefetch=4))
            med.register_source("homesSrc", MaterializedDocument(tree))
            result = med.prepare(
                "CONSTRUCT <answer> $H {$H} </answer> {}"
                " WHERE homesSrc homes.home $H")
            root, stats = result.connect_remote(chunk_size=2, depth=2)
            for child in root.children():
                for grandchild in child.children():
                    grandchild.tag
            with lock:
                stats_list.append(stats)

        _run_sessions(session)
        assert len(stats_list) == SESSIONS
        for stats in stats_list:
            assert 0 < stats.messages <= stats.commands

    def test_shared_mediator_concurrent_queries(self):
        """One mediator, many sessions preparing and materializing the
        same query concurrently (catalog and context registries are
        shared state)."""
        from repro.mediator import MIXMediator
        from repro.navigation import MaterializedDocument

        from .fixtures import (
            expected_fig4_answer,
            fig4_plan,
            homes_source,
            schools_source,
        )

        med = MIXMediator()
        med.register_source("homesSrc",
                            MaterializedDocument(homes_source()))
        med.register_source("schoolsSrc",
                            MaterializedDocument(schools_source()))
        expected = expected_fig4_answer()
        answers = [None] * SESSIONS

        def session(index):
            answers[index] = med.prepare(fig4_plan()).materialize()

        _run_sessions(session)
        assert answers == [expected] * SESSIONS


@pytest.mark.timeout(60)
def test_one_materialized_document_navigated_by_eight_threads():
    """The daemon's handler threads share a registered document.  Its
    node tables are read-only once built, so threads navigating it at
    once need no lock: each must read the whole tree back."""
    tree = _homes_tree(30)
    document = MaterializedDocument(tree)
    readings = [[] for _ in range(8)]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _run_sessions(
            lambda index: readings[index].extend(
                materialize(document) for _ in range(3)),
            n=8)
    finally:
        sys.setswitchinterval(previous)
    assert readings == [[tree] * 3] * 8


def _tiny_tree():
    return Tree("srcdoc", [elem("a", elem("b", "1"), elem("c", "2"))])


@pytest.mark.timeout(60)
def test_look_ahead_failure_is_raised_not_swallowed():
    """A look-ahead fill that hits a hard failure surfaces at the
    navigation whose demand fill scheduled it."""
    schedule = FailureSchedule([False], exhausted="fail")
    flaky = FlakyLXPServer(TreeLXPServer(_tiny_tree(), chunk_size=1,
                                         depth=1), schedule)
    buffer = buffered(flaky, prefetch=2)
    with pytest.raises(Exception, match="injected transient fault"):
        _scan_all(buffer)
    assert buffer.prefetch_stats.demand_fills == 1
    assert buffer.prefetch_stats.prefetch_fills == 0


# ----------------------------------------------------------------------
# The cross-session fragment store under colliding concurrent sessions
# ----------------------------------------------------------------------

class _KeyCountingLXPServer:
    """Counts source fills per hole id: the single-flight oracle --
    across every concurrent session, each region of a stable-version
    source must be filled at the source at most once."""

    def __init__(self, server):
        self.server = server
        self.fill_counts = {}
        self._lock = threading.Lock()

    def get_root(self):
        return self.server.get_root()

    def fill(self, hole_id):
        with self._lock:
            self.fill_counts[hole_id] = \
                self.fill_counts.get(hole_id, 0) + 1
        return self.server.fill(hole_id)

    def fill_batch(self, hole_ids, speculate: int = 0):
        replies = []
        for hole_id in hole_ids:
            replies.append((hole_id, self.fill(hole_id)))
        return replies

    def snapshot_version(self) -> int:
        return 0


@pytest.mark.timeout(60)
class TestFragmentStoreStress:
    def _make_store(self):
        from repro.runtime.fragcache import FragmentStore
        # one lock domain: every key contends, a worst case for the
        # single-flight table
        return FragmentStore()

    def test_colliding_sessions_no_deadlock_no_duplicate_fills(self):
        """N sessions drain the same view through one shared store:
        all terminate, answers agree, and no region is ever filled at
        the source twice (single-flight)."""
        from repro.runtime.fragcache import fragment_cached

        counting = _KeyCountingLXPServer(
            TreeLXPServer(_homes_tree(12), chunk_size=2, depth=2))
        store = self._make_store()
        results = [None] * SESSIONS
        # register every session before any fill happens: all start
        # cold (a fast finisher must not gift later *registrations* a
        # complete view -- that path is exercised elsewhere)
        servers = []
        for _ in range(SESSIONS):
            server, whole, decision = fragment_cached(
                "homesSrc", counting, store=store)
            assert decision.cached
            assert whole is None
            servers.append(server)

        def session(index):
            buffer = BufferComponent(servers[index])
            results[index] = _scan_all(buffer)

        _run_sessions(session)
        expected = _scan_all(BufferComponent(
            TreeLXPServer(_homes_tree(12), chunk_size=2, depth=2)))
        assert results == [expected] * SESSIONS
        duplicates = {hole: n
                      for hole, n in counting.fill_counts.items()
                      if n > 1}
        assert not duplicates, (
            "region filled at the source twice: %r" % duplicates)
        # every session demands every region exactly once, and the
        # single-flight table lets exactly one of them miss per
        # region: hits + misses == demands, misses == regions
        regions = len(counting.fill_counts)
        counters = store.stats.snapshot()
        assert counters["misses"] == regions
        assert counters["hits"] == (SESSIONS - 1) * regions

    def test_failed_producer_hands_over_to_waiter(self):
        """When the in-flight producer fails, a waiting session takes
        over production instead of deadlocking or caching the error."""
        from repro.errors import TransientSourceError
        from repro.runtime.fragcache import FragmentStore

        store = FragmentStore()
        # ``producing`` is set from *inside* session 0's producer, so
        # by the time any waiter demands the key, session 0 is the
        # registered in-flight producer -- deterministic ordering.
        producing = threading.Event()
        release = threading.Event()
        produced = []
        lock = threading.Lock()
        outcomes = [None] * SESSIONS

        def session(index):
            if index == 0:
                def produce():
                    producing.set()
                    assert release.wait(timeout=JOIN_TIMEOUT_S)
                    raise TransientSourceError("injected")
                try:
                    store.fill_through(("v", "k"), 0, produce)
                    outcomes[index] = "ok"
                except TransientSourceError:
                    outcomes[index] = "failed"
            else:
                assert producing.wait(timeout=JOIN_TIMEOUT_S)

                def produce():
                    with lock:
                        produced.append(index)
                    return []
                release.set()
                store.fill_through(("v", "k"), 0, produce)
                outcomes[index] = "ok"

        _run_sessions(session)
        assert outcomes.count("failed") == 1
        assert outcomes.count("ok") == SESSIONS - 1
        # exactly one waiter took over production; the rest hit
        assert len(produced) == 1
        counters = store.stats.snapshot()
        assert counters["misses"] == 1
        assert counters["hits"] == SESSIONS - 2

    def test_concurrent_churn_never_grafts_stale(self):
        """Sessions race an epoch advance: every fill a session gets
        back equals what the live source would answer -- under churn
        the cache may only change *who* fills, never *what*."""
        from repro.runtime.fragcache import FragmentStore, \
            fragment_cached
        from repro.testing import VersionedLXPServer
        from repro.xtree import Tree

        def snapshot(version):
            return Tree("homes", [
                Tree("home", [Tree("addr",
                                   [Tree("a%d.%d" % (version, i))])])
                for i in range(8)])

        store = FragmentStore()
        churn = VersionedLXPServer([snapshot(0), snapshot(1)],
                                   chunk_size=2)
        advanced = threading.Event()

        def session(index):
            from repro.buffer.lxp import reply_holes
            server, _, _ = fragment_cached("vs", churn, store=store)
            frontier = [server.get_root().hole_id]
            fills = 0
            while frontier:
                hole = frontier.pop(0)
                reply = server.fill(hole)
                fills += 1
                if index == 0 and fills == 2 \
                        and not advanced.is_set():
                    churn.advance()
                    advanced.set()
                frontier.extend(reply_holes(reply))

        _run_sessions(session)
        # after the dust settles every surviving entry is current:
        # a fresh session's fills all equal the live source's answers
        from repro.buffer.lxp import reply_holes
        server, _, _ = fragment_cached("vs", churn, store=store)
        frontier = [server.get_root().hole_id]
        while frontier:
            hole = frontier.pop(0)
            reply = server.fill(hole)
            assert reply == churn.fill(hole)
            frontier.extend(reply_holes(reply))

    def test_fragcache_module_passes_repo_lint(self):
        """Lock discipline (L001) and the event-name contract hold
        for the fragment cache module."""
        import sys
        from pathlib import Path

        repo = Path(__file__).resolve().parent.parent
        sys.path.insert(0, str(repo))
        from tools.lint import lint_file, load_event_names
        findings = lint_file(
            repo / "src" / "repro" / "runtime" / "fragcache.py",
            load_event_names(repo))
        assert findings == [], findings

    @pytest.mark.parametrize("outcome", ["miss", "invalidate", "store"])
    def test_a_raising_observer_never_wedges_the_key(self, outcome):
        """The observer is foreign code (a tracer subscriber).  Raising
        on an outcome must still release the key's in-flight
        registration and wake the sessions waiting on it; the error
        reaches the observer's own caller.  A second session demanding
        the key -- later (``miss``, ``invalidate``) or already waiting
        (``store``) -- then completes instead of blocking for good."""
        from repro.buffer import Fragments
        from repro.runtime.fragcache import FragmentStore

        store = FragmentStore()
        key = ("v", "k")
        if outcome == "invalidate":
            # a stale entry for the raising demand to drop
            store.fill_through(key, 0, lambda: Fragments(("old",), (1,)))
        producing, waiting = threading.Event(), threading.Event()

        def produce():
            producing.set()
            if outcome == "store":
                # the second session is waiting on this production
                assert waiting.wait(timeout=JOIN_TIMEOUT_S)
            return Fragments(("new",), (1,))

        def raising(seen):
            if seen == outcome:
                raise RuntimeError("subscriber failed on %s" % seen)

        def noting(seen):
            if seen == "wait":
                waiting.set()

        replies, errors = [], []

        def demand(observer):
            try:
                replies.append(store.fill_through(key, 1, produce,
                                                  observer=observer))
            except RuntimeError as err:
                errors.append(err)

        first = threading.Thread(target=demand, args=(raising,),
                                 daemon=True)
        second = threading.Thread(target=demand, args=(noting,),
                                  daemon=True)
        first.start()
        if outcome == "store":
            # the first session holds the key before the second asks
            assert producing.wait(timeout=JOIN_TIMEOUT_S)
        else:
            first.join(timeout=JOIN_TIMEOUT_S)
        second.start()
        for thread in (first, second):
            thread.join(timeout=3.0)
        assert not first.is_alive() and not second.is_alive(), \
            "a session is still blocked on the key after %r" % outcome
        assert [str(err) for err in errors] == [
            "subscriber failed on %s" % outcome]
        assert replies == [Fragments(("new",), (1,))]


# ----------------------------------------------------------------------
# The socket server under mixed polite/hostile load
# ----------------------------------------------------------------------

@pytest.mark.timeout(120)
def test_server_survives_mixed_stress_with_malformed_frames():
    """Many concurrent well-behaved sessions interleaved with
    malformed-frame injectors: every polite session completes with
    the same navigation replies, every hostile one is killed, and the
    server ends with balanced open/close accounting."""
    from repro.mediator.mix import MIXMediator
    from repro.navigation.materialized import MaterializedDocument
    from repro.runtime.config import EngineConfig
    from repro.server import MediatorServer
    from repro.testing.transport import (
        scripted_session, send_garbage, send_truncated_frame)

    query = """
    CONSTRUCT <result> <home> $A {$A} </home> {$H} </result> {}
    WHERE homesSrc homes.home $H AND $H addr._ $A
    """
    config = EngineConfig(serve_port=0, serve_max_sessions=32,
                          chunk_size=2)
    mediator = MIXMediator(config)
    mediator.register_source(
        "homesSrc", MaterializedDocument(_homes_tree(6)))
    server = MediatorServer(mediator)
    host, port = server.start()
    try:
        control = scripted_session(host, port, query, fills=3)

        polite_replies = {}
        hostile_done = []

        def polite(index):
            polite_replies[index] = scripted_session(
                host, port, query, fills=3)

        def hostile(index):
            if index % 2 == 0:
                send_garbage(host, port)
            else:
                send_truncated_frame(host, port)
            hostile_done.append(index)

        threads = ([threading.Thread(target=polite, args=(i,),
                                     daemon=True)
                    for i in range(12)]
                   + [threading.Thread(target=hostile, args=(i,),
                                       daemon=True)
                      for i in range(8)])
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(JOIN_TIMEOUT_S)
            assert not thread.is_alive(), "stress worker deadlocked"

        assert len(hostile_done) == 8
        assert len(polite_replies) == 12
        for replies in polite_replies.values():
            # Open replies differ only in the session serial; every
            # navigation/close reply is byte-identical to the control.
            assert replies[1:] == control[1:]
        # Every admitted connection -- polite or hostile -- must be
        # torn down; hostile ones never reach "open", so the balance
        # is closed == accepted (nothing was rejected here), not
        # closed == opened.
        deadline = threading.Event()
        for _ in range(500):
            snapshot = server.stats.snapshot()
            if snapshot["sessions_closed"] == snapshot["accepted"] \
                    and server.active_sessions == 0:
                break
            deadline.wait(0.01)
        assert snapshot["protocol_kills"] >= 4   # the garbage halves
        assert snapshot["sessions_closed"] == snapshot["accepted"]
        assert snapshot["sessions_opened"] == 13  # control + 12 polite
        assert server.active_sessions == 0
        # The daemon itself is unharmed.
        assert scripted_session(host, port, query,
                                fills=3)[1:] == control[1:]
    finally:
        assert server.drain()
