"""Invalidation proof for the cross-session fragment cache (PR 8).

Cached fragments are tagged with the *source snapshot version* they
were filled at, and the contract is strict: **no stale fragment is
ever grafted**.  The suite churns a :class:`~repro.testing.
VersionedLXPServer` through snapshot epochs and checks:

* a warm session after ``advance()`` answers from the *new* snapshot
  (byte-identical to a cache-off run over it), never the cached old
  one, and the invalidation counters tick,
* a session *straddling* an epoch boundary terminates and behaves
  exactly like the cache-off run under the same interleaving (every
  individual fill is version-exact; the cache adds no new anomaly),
* a stored *whole view* from an old epoch is never adopted,
* the epoch sweep drops every entry of the churned view in one pass,
* a fill that fails under injected faults (FakeClock-driven retries,
  the resilience layer sitting *above* the caching seam) stores
  nothing, and the retry that succeeds populates the store once.
"""

import pytest

from repro.mediator import MIXMediator
from repro.runtime import EngineConfig
from repro.runtime.fragcache import (
    FragmentStore,
    fragment_cached,
    reset_shared_store,
    shared_store,
)
from repro.testing import (
    FailureSchedule,
    FakeClock,
    FlakyLXPServer,
    VersionedLXPServer,
)
from repro.xtree import Tree, to_xml


@pytest.fixture(autouse=True)
def _fresh_shared_store():
    reset_shared_store()
    yield
    reset_shared_store()


def _snapshot(version, homes=6):
    """Same shape every epoch, epoch-stamped leaf data."""
    return Tree("homes", [
        Tree("home", [Tree("addr", [Tree("a%d.%d" % (version, i))]),
                      Tree("price", [Tree("p%d.%d" % (version, i))])])
        for i in range(homes)])


QUERY = ("CONSTRUCT <hits> $A {$A} </hits> {} "
         "WHERE vs home.addr._ $A")


def _mediator_over(server, fragment_cache=True, tracer=None):
    med = MIXMediator(EngineConfig(fragment_cache=fragment_cache),
                      tracer=tracer)
    med.register_wrapper("vs", server)
    return med


def _answer(server, fragment_cache=True):
    med = _mediator_over(server, fragment_cache)
    return to_xml(med.prepare(QUERY).materialize())


# ----------------------------------------------------------------------
# Warm session after churn: new snapshot, never the cached old one
# ----------------------------------------------------------------------

class TestChurn:
    def test_advance_invalidates_and_serves_new_snapshot(self):
        churn = VersionedLXPServer([_snapshot(0), _snapshot(1)],
                                   chunk_size=2)
        v0 = _answer(churn)
        oracle_v0 = _answer(
            VersionedLXPServer([_snapshot(0)], chunk_size=2),
            fragment_cache=False)
        assert v0 == oracle_v0

        churn.advance()
        v1 = _answer(churn)
        oracle_v1 = _answer(
            VersionedLXPServer([_snapshot(1)], chunk_size=2),
            fragment_cache=False)
        assert v1 == oracle_v1
        assert v1 != v0  # the leaf data really churned
        assert shared_store().stats.snapshot()["invalidations"] >= 1

    def test_stale_whole_view_is_never_adopted(self):
        churn = VersionedLXPServer([_snapshot(0), _snapshot(1)],
                                   chunk_size=2)
        _answer(churn)  # harvests the complete v0 view
        store = shared_store()
        assert store.stats.snapshot()["view_stores"] >= 1

        churn.advance()
        med = _mediator_over(churn)
        # registration at v1 must not have adopted the v0 view: the
        # warm query re-fills from the live source
        fills_before = churn.stats.fills
        v1 = to_xml(med.prepare(QUERY).materialize())
        assert churn.stats.fills > fills_before
        oracle_v1 = _answer(
            VersionedLXPServer([_snapshot(1)], chunk_size=2),
            fragment_cache=False)
        assert v1 == oracle_v1
        assert store.stats.snapshot()["view_adoptions"] == 0

    def test_counters_tick_exactly_for_dropped_entries(self):
        store = FragmentStore()
        for key in ("k1", "k2", "k3"):
            store.fill_through(("vs", key), 0, lambda: [])
        assert store.entry_count() == 3
        dropped = store.sweep("vs", 1)
        assert dropped == 3
        assert store.entry_count() == 0
        assert store.stats.snapshot()["invalidations"] == 3

    def test_sweep_spares_other_views(self):
        store = FragmentStore()
        store.fill_through(("vs", "k"), 0, lambda: [])
        store.fill_through(("other", "k"), 0, lambda: [])
        assert store.sweep("vs", 1) == 1
        assert store.entry_count() == 1
        # the surviving entry still hits
        store.fill_through(("other", "k"), 0, lambda: [])
        assert store.stats.snapshot()["hits"] == 1


# ----------------------------------------------------------------------
# Epoch-straddling session: terminates, no stale graft, no anomaly
# ----------------------------------------------------------------------

class TestEpochStraddle:
    def _drain_with_advance_after(self, server, advance_at, churn):
        """Walk the whole export, calling ``churn.advance()`` after
        the ``advance_at``-th fill -- a deterministic interleaving."""
        from repro.buffer.lxp import reply_holes
        replies = []
        fills = 0
        frontier = [server.get_root().hole_id]
        while frontier:
            hole = frontier.pop(0)
            reply = server.fill(hole)
            fills += 1
            if fills == advance_at:
                churn.advance()
            replies.append((hole, reply))
            frontier.extend(reply_holes(reply))
        return replies

    def test_straddling_session_matches_cache_off(self):
        for advance_at in (1, 2, 3):
            cached_churn = VersionedLXPServer(
                [_snapshot(0), _snapshot(1)], chunk_size=2)
            store = FragmentStore()
            cached, _, decision = fragment_cached(
                "vs", cached_churn, store=store)
            assert decision.cached
            got = self._drain_with_advance_after(
                cached, advance_at, cached_churn)

            plain_churn = VersionedLXPServer(
                [_snapshot(0), _snapshot(1)], chunk_size=2)
            want = self._drain_with_advance_after(
                plain_churn, advance_at, plain_churn)
            assert got == want, "advance_at=%d" % advance_at

    def test_straddle_then_warm_serves_only_new_epoch(self):
        churn = VersionedLXPServer([_snapshot(0), _snapshot(1)],
                                   chunk_size=2)
        store = FragmentStore()
        cached, _, _ = fragment_cached("vs", churn, store=store)
        self._drain_with_advance_after(cached, 2, churn)
        # everything left in the store is tagged with epoch 1: a
        # fresh session hits only entries the straddler filled at v1
        warm_inner = VersionedLXPServer([_snapshot(0), _snapshot(1)],
                                        chunk_size=2)
        warm_inner.advance()
        warm, _, _ = fragment_cached("vs", warm_inner, store=store)
        from repro.buffer.lxp import reply_holes
        frontier = [warm.get_root().hole_id]
        while frontier:
            hole = frontier.pop(0)
            reply = warm.fill(hole)
            direct = warm_inner.fill(hole)
            assert reply == direct  # never a v0 fragment
            frontier.extend(reply_holes(reply))


# ----------------------------------------------------------------------
# Interplay with resilience: failed fills store nothing
# ----------------------------------------------------------------------

class TestResilienceInterplay:
    def test_failed_fill_stores_nothing_retry_populates_once(self):
        schedule = FailureSchedule.first(1)
        flaky = FlakyLXPServer(
            VersionedLXPServer([_snapshot(0)], chunk_size=2),
            schedule)
        clock = FakeClock()
        med = MIXMediator(
            EngineConfig(fragment_cache=True, retry_max_attempts=3),
            clock=clock)
        med.register_wrapper("vs", flaky)
        answer = to_xml(med.prepare(QUERY).materialize())
        oracle = _answer(
            VersionedLXPServer([_snapshot(0)], chunk_size=2),
            fragment_cache=False)
        assert answer == oracle
        assert schedule.failures == 1
        counters = shared_store().stats.snapshot()
        # the failed attempt counted neither hit nor miss; the retry
        # stored the entry exactly once
        assert counters["misses"] == counters["stores"]

    def test_degraded_placeholder_is_never_cached(self):
        """A permanently dead source degrades to <mix:error>; with
        the caching seam *below* resilience the placeholder must not
        poison the store for a later healthy session."""
        dead = FlakyLXPServer(
            VersionedLXPServer([_snapshot(0)], chunk_size=2),
            FailureSchedule.always())
        med = MIXMediator(
            EngineConfig(fragment_cache=True, retry_max_attempts=1,
                         on_source_failure="degrade"),
            clock=FakeClock())
        med.register_wrapper("vs", dead)
        degraded = to_xml(med.prepare(QUERY).materialize())
        assert "mix:error" in degraded or degraded == "<hits/>"
        assert shared_store().stats.snapshot()["stores"] == 0

        healthy = VersionedLXPServer([_snapshot(0)], chunk_size=2)
        answer = _answer(healthy)
        oracle = _answer(
            VersionedLXPServer([_snapshot(0)], chunk_size=2),
            fragment_cache=False)
        assert answer == oracle


# ----------------------------------------------------------------------
# The versioned harness itself
# ----------------------------------------------------------------------

class TestVersionedHarness:
    def test_versions_and_exhaustion(self):
        churn = VersionedLXPServer([_snapshot(0), _snapshot(1)])
        assert churn.snapshot_version() == 0
        assert churn.advance() == 1
        with pytest.raises(IndexError):
            churn.advance()
        with pytest.raises(ValueError):
            VersionedLXPServer([])

    def test_shared_stats_span_snapshots(self):
        churn = VersionedLXPServer([_snapshot(0), _snapshot(1)],
                                   chunk_size=2)
        churn.fill(churn.get_root().hole_id)
        churn.advance()
        churn.fill(churn.get_root().hole_id)
        assert churn.stats.fills == 2
