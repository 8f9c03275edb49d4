"""Differential proof for the cross-session fragment cache (PR 8).

The fragment cache's contract is *observational equivalence*: with
``EngineConfig(fragment_cache=True)`` every answer must be
byte-identical to the lazy reference run, whether the process-wide
``FragmentStore`` is cold (first session populates it) or warm (a
later session grafts stored fragments, or adopts a complete view,
instead of re-issuing LXP fills).  This suite checks the contract:

* mediator-level: cache-off vs cache-on-cold vs cache-on-warm over
  the same store, byte-identical answers, and the warm session's
  wrapper traffic collapsing to zero on a fully harvested view,
* subtree grafting: a partially explored cold session leaves no
  whole view behind, yet the warm session still *hits* on every
  region the cold one filled,
* the accounting invariant ``hits + misses == successful demands``,
  both structurally at the store and via the ``fragcache.fill``
  span count at the mediator,
* randomized plans (hypothesis, reusing the lazy-equivalence
  strategies) against the cache-off run and the eager oracle,

and proves the *default* path is untouched: with ``fragment_cache``
off (the default) ``repro.runtime.fragcache`` is never even imported,
no ``fragcache.*`` event is ever emitted, and ``stats()`` /
``explain()`` carry no fragment-cache section.
"""

import os
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.algebra import evaluate_bindings
from repro.buffer.component import BufferComponent
from repro.lazy import BindingsDocument, build_lazy_plan
from repro.mediator import MIXMediator
from repro.navigation import materialize
from repro.runtime import EngineConfig, ExecutionContext, Tracer
from repro.runtime.fragcache import (
    FragmentStore,
    admissible,
    fragment_cached,
    reset_shared_store,
    shared_store,
)
from repro.wrappers import XMLFileWrapper
from repro.wrappers.base import buffered
from repro.xtree import to_xml

from .test_lazy_equivalence import _plans, _source_tree

WALKS = int(os.environ.get("DIFF_WALKS", "25"))
REPO = Path(__file__).resolve().parent.parent

# two children per home: at chunk_size=2 every home ships hole-free,
# so the demand scan of the home list drains the *whole* export and
# the cold session harvests a complete view
HOMES_XML = (
    "<homes>"
    + "".join("<home><addr>a%d</addr><price>p%d</price></home>"
              % (i, i) for i in range(8))
    + "</homes>")

HOMES_QUERY = ("CONSTRUCT <hits> $A {$A} </hits> {} "
               "WHERE homesSrc homes.home.addr._ $A")


@pytest.fixture(autouse=True)
def _fresh_shared_store():
    """The mediator shares one process-wide store; isolate tests."""
    reset_shared_store()
    yield
    reset_shared_store()


def _homes_mediator(fragment_cache, tracer=None):
    med = MIXMediator(EngineConfig(fragment_cache=fragment_cache),
                      tracer=tracer)
    med.register_wrapper(
        "homesSrc", XMLFileWrapper("homesSrc", HOMES_XML,
                                   chunk_size=2))
    return med


def _run_homes(fragment_cache, tracer=None):
    med = _homes_mediator(fragment_cache, tracer=tracer)
    result = med.prepare(HOMES_QUERY)
    xml = to_xml(result.materialize())
    return med, result, xml


# ----------------------------------------------------------------------
# Mediator-level: off == cold == warm, byte for byte
# ----------------------------------------------------------------------

class TestColdWarmEquivalence:
    def test_off_cold_warm_byte_identical(self):
        _, _, off = _run_homes(False)
        _, cold_result, cold = _run_homes(True)
        _, warm_result, warm = _run_homes(True)
        assert cold == off
        assert warm == off
        assert cold_result.stats()["fragcache"]["cached_sources"] == 1
        assert warm_result.stats()["fragcache"]["cached_sources"] == 1

    def test_warm_session_issues_no_source_fills(self):
        """A fully harvested view is adopted whole: the second
        session never opens an LXP dialogue at all."""
        wrapper_cold = XMLFileWrapper("homesSrc", HOMES_XML,
                                      chunk_size=2)
        med_cold = MIXMediator(EngineConfig(fragment_cache=True))
        med_cold.register_wrapper("homesSrc", wrapper_cold)
        off = to_xml(med_cold.prepare(HOMES_QUERY).materialize())
        assert wrapper_cold.stats.fills > 0

        wrapper_warm = XMLFileWrapper("homesSrc", HOMES_XML,
                                      chunk_size=2)
        med_warm = MIXMediator(EngineConfig(fragment_cache=True))
        med_warm.register_wrapper("homesSrc", wrapper_warm)
        warm = to_xml(med_warm.prepare(HOMES_QUERY).materialize())
        assert warm == off
        assert wrapper_warm.stats.fills == 0
        counters = shared_store().stats.snapshot()
        assert counters["view_stores"] >= 1
        assert counters["view_adoptions"] >= 1

    def test_explain_reports_decisions(self):
        _, result, _ = _run_homes(True)
        text = result.explain()
        assert "fragment cache:" in text
        assert "cached homesSrc" in text

    def test_admitted_detail_is_the_classifiers_verdict(self):
        # What is cached is a wrapper's export, a bare source: the
        # decision states the class the classifier gives one.
        from repro.algebra.operators import Source
        from repro.rewriter.analyzer import classify_plan
        ok, reason, detail = admissible(
            "src", XMLFileWrapper("src", HOMES_XML))
        assert (ok, reason) == (True, "cacheable")
        assert detail.endswith(
            "Definition 2 class %s" % classify_plan(Source("src", "v")))

    def test_store_is_shared_across_mediators(self):
        med_a = _homes_mediator(True)
        med_b = _homes_mediator(True)
        assert med_a.config.fragment_cache
        assert med_b.config.fragment_cache
        # both registered against the same process-wide store
        assert shared_store().stats.snapshot()["hits"] == 0


# ----------------------------------------------------------------------
# Subtree grafting: partial cold session, warm session hits
# ----------------------------------------------------------------------

class TestSubtreeGraft:
    def _cached_server(self, store):
        wrapper = XMLFileWrapper("src", HOMES_XML, chunk_size=2)
        server, whole, decision = fragment_cached(
            "src", wrapper, store=store)
        assert decision.cached, decision
        return wrapper, server, whole

    def test_partial_cold_then_warm_hits(self):
        store = FragmentStore()
        wrapper, cold, whole = self._cached_server(store)
        assert whole is None
        root = cold.get_root()
        reply = cold.fill(root.hole_id)
        # stop here: the view is not drained, so no whole view is
        # stored, but the filled region is
        assert store.entry_count() >= 1
        before = store.stats.snapshot()
        assert before["hits"] == 0
        assert before["misses"] == 1

        wrapper2, warm, whole2 = self._cached_server(store)
        assert whole2 is None  # incomplete view: no adoption
        root2 = warm.get_root()
        reply2 = warm.fill(root2.hole_id)
        assert reply2 == reply
        after = store.stats.snapshot()
        assert after["hits"] == 1
        # the warm fill never reached the second wrapper
        assert wrapper2.stats.fills == 0

    def test_warm_full_walk_matches_cold(self):
        """Drain the whole export twice; the warm pass is answered
        entirely from the store and yields identical fragments."""
        from repro.buffer.lxp import reply_holes

        def drain(server):
            replies = {}
            frontier = [server.get_root().hole_id]
            while frontier:
                hole = frontier.pop()
                reply = server.fill(hole)
                replies[hole] = reply
                frontier.extend(reply_holes(reply))
            return replies

        store = FragmentStore()
        wrapper_a, cold, _ = self._cached_server(store)
        cold_replies = drain(cold)
        wrapper_b, warm, _ = self._cached_server(store)
        warm_replies = drain(warm)
        assert warm_replies == cold_replies
        assert wrapper_b.stats.fills == 0
        counters = store.stats.snapshot()
        assert counters["hits"] == len(cold_replies)
        assert counters["misses"] == len(cold_replies)


# ----------------------------------------------------------------------
# The accounting invariant: hits + misses == successful demands
# ----------------------------------------------------------------------

class TestAccountingInvariant:
    def test_structural_invariant_at_the_store(self):
        store = FragmentStore()
        demands = 0
        for round_ in range(3):
            for key in ("k1", "k2", "k3"):
                store.fill_through(("v", key), 0, lambda: [])
                demands += 1
        counters = store.stats.snapshot()
        assert counters["hits"] + counters["misses"] == demands
        assert counters["hits"] == 6
        assert counters["misses"] == 3

    def test_failed_demands_count_neither(self):
        store = FragmentStore()

        def boom():
            raise RuntimeError("source down")

        with pytest.raises(RuntimeError):
            store.fill_through(("v", "k"), 0, boom)
        counters = store.stats.snapshot()
        assert counters["hits"] == 0
        assert counters["misses"] == 0
        # the key is refillable after the failure
        store.fill_through(("v", "k"), 0, lambda: [])
        counters = store.stats.snapshot()
        assert counters["hits"] + counters["misses"] == 1

    def test_mediator_invariant_via_fill_spans(self):
        tracer = Tracer(record=True)
        _, result, _ = _run_homes(True, tracer=tracer)
        demands = sum(1 for e in tracer.events
                      if e.layer == "fragcache"
                      and e.event == "fill.begin")
        counters = result.stats()["fragcache"]
        assert demands > 0
        assert counters["hits"] + counters["misses"] == demands


# ----------------------------------------------------------------------
# Randomized plans: cache-on cold/warm == cache-off == eager oracle
# ----------------------------------------------------------------------

def _materialized_cached(plan, tree, store):
    """One session over ``store`` with the caching seam installed,
    mirroring the mediator's wiring (buffer -> caching -> wrapper)."""
    context = ExecutionContext.create(
        EngineConfig(fragment_cache=True))
    wrapper = XMLFileWrapper("src", tree.child(0))
    server, whole, _ = fragment_cached("src", wrapper, store=store)
    if whole is not None:
        buffer = BufferComponent.prefilled(whole, name="src")
    else:
        buffer = buffered(server, name="src")
    lazy = build_lazy_plan(plan, {"src": buffer}, context)
    return materialize(BindingsDocument(lazy))


def _materialized_plain(plan, tree):
    context = ExecutionContext.create(EngineConfig())
    wrapper = XMLFileWrapper("src", tree.child(0))
    lazy = build_lazy_plan(plan, {"src": buffered(wrapper)}, context)
    return materialize(BindingsDocument(lazy))


@settings(max_examples=WALKS, deadline=None)
@given(tree=_source_tree, plan=_plans())
def test_random_plans_cache_is_observationally_silent(tree, plan):
    oracle = evaluate_bindings(plan, {"src": tree}).to_tree()
    off = _materialized_plain(plan, tree)
    store = FragmentStore()
    cold = _materialized_cached(plan, tree, store)
    warm = _materialized_cached(plan, tree, store)
    assert off == oracle
    assert cold == oracle
    assert warm == oracle


# ----------------------------------------------------------------------
# The default path is untouched
# ----------------------------------------------------------------------

class TestDefaultPathUnchanged:
    def test_fragment_cache_defaults_off(self):
        assert EngineConfig().fragment_cache is False

    def test_no_fragcache_events_or_stats_by_default(self):
        tracer = Tracer(record=True)
        _, result, _ = _run_homes(False, tracer=tracer)
        assert all(e.layer != "fragcache" for e in tracer.events)
        assert "fragcache" not in result.stats()
        assert "fragment cache:" not in result.explain()
        med = _homes_mediator(False)
        assert med.fragcache_decisions == ()

    def test_fragcache_module_not_imported_by_default(self):
        """The default query path must not even import the cache."""
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
            "assert 'repro.runtime.fragcache' not in sys.modules, "
            "'fragcache imported on default path'\n"
            % HOMES_XML)
        proc = subprocess.run([sys.executable, "-c", script],
                              cwd=str(REPO), capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
