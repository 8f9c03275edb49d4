"""The fragment store against a model: a dict keyed by (view, hole,
version).

:class:`~repro.runtime.fragcache.FragmentStore` is checked rule by
rule against the plainest store that could answer the same demands --
a dict of the records each key was last produced at, plus a dict of
whole views -- and its counters against the counts the model
predicts: ``hits + misses == demands`` after every step, and
``invalidations`` exactly the stale entries a demand, a view read or a
sweep dropped.  One rule is threaded: N sessions demanding one key run
the producer once, and a failing producer hands the job to the next
waiter.
"""

import sys
import threading

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.buffer import Fragments
from repro.runtime.fragcache import FragmentStore

from .test_differential_walks import WALKS

VIEWS = st.sampled_from(["v", "w"])
HOLES = st.sampled_from(["h1", "h2", "h3"])
VERSIONS = st.integers(min_value=0, max_value=2)

#: sessions in the threaded rule, and their bound on any wait
SESSIONS = 4
TIMEOUT_S = 30.0

#: 60 runs at the default walk volume (``DIFF_WALKS`` 25), scaled
#: with it like the differential walks: CI's stress job drives the
#: single-lock store's threaded single-flight rule 480 times
EXAMPLES = 60 * WALKS // 25


def _record(*parts):
    """A distinct one-element reply per (view, hole, version, ...)."""
    return Fragments(("/".join(map(str, parts)),), (1,))


class FragmentStoreModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.store = FragmentStore()
        #: (view, hole) -> (version, record): the entries
        self.entries = {}
        #: view -> (version, record): the whole views
        self.views = {}
        self.counts = dict(hits=0, misses=0, stores=0, invalidations=0,
                           single_flight_waits=0, view_stores=0,
                           view_adoptions=0)
        self.demands = 0
        self.serial = 0

    # -- the demand path ------------------------------------------------
    @rule(view=VIEWS, hole=HOLES, version=VERSIONS)
    def demand(self, view, hole, version):
        produced = []

        def producer():
            produced.append(True)
            return _record(view, hole, version)

        got = self.store.fill_through((view, hole), version, producer)
        self.demands += 1
        held = self.entries.get((view, hole))
        if held is not None and held[0] == version:
            assert not produced
            assert got is held[1]
            self.counts["hits"] += 1
            return
        assert produced == [True]
        assert got == _record(view, hole, version)
        if held is not None:
            self.counts["invalidations"] += 1
        self.counts["misses"] += 1
        self.counts["stores"] += 1
        self.entries[(view, hole)] = (version, got)

    # -- whole views ----------------------------------------------------
    @rule(view=VIEWS, version=VERSIONS)
    def store_view(self, view, version):
        self.serial += 1
        record = _record(view, "view", version, self.serial)
        self.store.store_view(view, version, record)
        self.views[view] = (version, record)
        self.counts["view_stores"] += 1

    @rule(view=VIEWS, version=VERSIONS)
    def read_view(self, view, version):
        got = self.store.view(view, version)
        held = self.views.get(view)
        if held is None:
            assert got is None
        elif held[0] == version:
            assert got is held[1]
            self.counts["view_adoptions"] += 1
        else:
            assert got is None
            del self.views[view]
            self.counts["invalidations"] += 1

    # -- invalidation ---------------------------------------------------
    @rule(view=VIEWS, version=VERSIONS)
    def sweep(self, view, version):
        stale = [key for key, (held, _) in self.entries.items()
                 if key[0] == view and held != version]
        for key in stale:
            del self.entries[key]
        if view in self.views and self.views[view][0] != version:
            del self.views[view]
            stale.append(view)
        assert self.store.sweep(view, version) == len(stale)
        self.counts["invalidations"] += len(stale)

    @rule()
    def clear(self):
        self.store.clear()
        self.entries.clear()
        self.views.clear()

    # -- the threaded rule ----------------------------------------------
    @rule(fail_first=st.booleans())
    def sessions_demand_one_key(self, fail_first):
        """SESSIONS threads demand a fresh key at once.  The producer
        runs once per production -- it waits until every other session
        is waiting on it -- and, with ``fail_first``, the first one
        raises: the key is handed to one of the waiters, never lost or
        produced twice."""
        self.serial += 1
        key = ("v", "fresh%d" % self.serial)
        waiting = threading.Semaphore(0)
        calls = []
        lock = threading.Lock()
        outcomes = []

        def producer():
            with lock:
                calls.append(True)
                first = len(calls) == 1
            if first:
                for _ in range(SESSIONS - 1):
                    assert waiting.acquire(timeout=TIMEOUT_S)
                if fail_first:
                    raise RuntimeError("source down")
            return _record(*key)

        def observer(outcome):
            if outcome == "wait":
                waiting.release()

        def session():
            try:
                outcomes.append(self.store.fill_through(
                    key, 0, producer, observer=observer))
            except RuntimeError:
                outcomes.append("failed")

        before = self.store.stats.snapshot()
        threads = [threading.Thread(target=session, daemon=True)
                   for _ in range(SESSIONS)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=TIMEOUT_S)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        after = self.store.stats.snapshot()
        assert len(calls) == 1 + fail_first
        assert outcomes.count("failed") == int(fail_first)
        assert outcomes.count(_record(*key)) == SESSIONS - fail_first
        waits = after["single_flight_waits"] \
            - before["single_flight_waits"]
        assert waits >= SESSIONS - 1
        self.demands += SESSIONS - fail_first
        self.counts["misses"] += 1
        self.counts["stores"] += 1
        self.counts["hits"] += SESSIONS - 1 - fail_first
        self.counts["single_flight_waits"] += waits
        self.entries[key] = (0, _record(*key))

    # -- invariants -----------------------------------------------------
    @invariant()
    def counters_match_the_model(self):
        counters = self.store.stats.snapshot()
        assert counters == self.counts
        assert counters["hits"] + counters["misses"] == self.demands

    @invariant()
    def entries_match_the_model(self):
        assert self.store.entry_count() == len(self.entries)


def test_fragment_store_state_machine():
    run_state_machine_as_test(
        FragmentStoreModel,
        settings=settings(max_examples=EXAMPLES, stateful_step_count=30,
                          deadline=None))
