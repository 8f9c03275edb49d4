"""The interpretive-overhead ratchet: Python calls per source navigation.

The paper prices a view in source navigations per client navigation
(Section 3, Definition 2); what the engine adds on top is the Python it
runs *per* source navigation.  That is countable without a clock: run a
pinned query to the end under ``sys.setprofile``, count the ``call``
events (Python-level calls only -- C calls are reported as ``c_call``
and differ between interpreter versions), divide by the navigations the
meters counted.  The quotient is a property of the code alone, so it
can be held in tier-1: like ``test_graph_size_ratchet``, a bound may
shrink, never grow without someone editing it on purpose.

Lock sections are counted the same way, through the named-lock
factory: one query's operators, caches and source counters are driven
by one thread, so a join scan enters no lock per source navigation.
"""

import collections
import gc
import random
import sys
import threading

from repro.runtime import locks

import pytest

from repro import EngineConfig, MIXMediator
from repro.bench import (ALLBOOKS_VIEW_NAME, CHEAP_DB_BOOKS_QUERY,
                         HOMES_SCHOOLS_QUERY, allbooks_plan,
                         homes_and_schools, two_bookstores)
from repro.buffer import TreeLXPServer
from repro.navigation import MaterializedDocument
from repro.relational import Connection, Database
from repro.wrappers import RelationalLXPWrapper, XMLFileWrapper
from repro.xtree import Tree

NAMES_QUERY = ("CONSTRUCT <names> $N {$N} </names> {} "
               "WHERE bigdb items._ $R AND $R name._ $N")
HOMES_QUERY = ("CONSTRUCT <result> <home> $A {$A} </home> {$H} "
               "</result> {} "
               "WHERE homesSrc homes.home $H AND $H addr._ $A")


def _join_scan(mediator):
    """Figure 3's join + groupBy over materialized sources: the lazy
    operators and the meters are all there is."""
    for name, tree in homes_and_schools(10, seed=1).items():
        mediator.register_source(name, MaterializedDocument(tree))
    return HOMES_SCHOOLS_QUERY


def _served_sessions(mediator):
    """The served_sessions query in process: ``groupBy[{$H}]`` over
    whole homes, so each binding's key is a walk of a home."""
    for name, tree in homes_and_schools(20).items():
        mediator.register_source(name, MaterializedDocument(tree))
    return HOMES_QUERY


def _wrapped_scan(mediator):
    """A one-chain plan over a relational wrapper: adds the buffer's
    hit path, splicing and the wrapper's fills."""
    rng = random.Random(1)
    database = Database("bigdb")
    table = database.create_table("items",
                                  [("name", "str"), ("qty", "int")])
    table.insert_many([("item%04d" % i, rng.randrange(97))
                       for i in range(120)])
    mediator.register_wrapper(
        "bigdb", RelationalLXPWrapper(Connection(database),
                                      chunk_size=20))
    return NAMES_QUERY


def _browse(mediator):
    """The browse_prefix query read to the end: the allbooks view
    inlined (two projects and a union under a groupBy) and a select
    over its books, through the buffer."""
    stores = dict(zip(("amazonSrc", "bnSrc"), two_bookstores(50)))
    for name, books in stores.items():
        mediator.register_wrapper(name, TreeLXPServer(
            Tree(name, [Tree("catalog", books)]), chunk_size=10))
    mediator.register_view(ALLBOOKS_VIEW_NAME, allbooks_plan())
    return CHEAP_DB_BOOKS_QUERY


def _cache_cold(mediator):
    """The cache_cold query: the fragment cache's seam, its store
    (single-flight, harvest, whole-view assembly) and the wrapper's
    fills, with a chunk of two homes per fill."""
    from repro.runtime.fragcache import reset_shared_store
    reset_shared_store()
    tree = homes_and_schools(200)["homesSrc"].children[0]
    mediator.register_wrapper(
        "homesSrc", XMLFileWrapper("homesSrc", tree, chunk_size=2))
    return "CONSTRUCT <hits> $H {$H} </hits> {} WHERE homesSrc homes.home $H"


def _calls_per_navigation(register, config=EngineConfig()):
    mediator = MIXMediator(config)
    query = register(mediator)
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        answer = mediator.prepare(query).root.to_tree()
    finally:
        sys.setprofile(previous)
    navigations = mediator.total_source_navigations()
    assert navigations > 500 and answer.children
    return calls / navigations


# Measured at the commits that set them, plus 5 %: 5.04 on the join
# scan, 6.39 on the wrapped scan, 5.91 on the served query and 4.62
# on the browse query once ``prepare`` walked plans with an explicit
# stack (one generator per walk, not one per plan node; they read
# 5.22, 6.43, 6.08 and 4.73 before); 6.68 on the fragment-cache scan once the store
# became one lock domain (6.70 before, 9.30 before the flat record).
# Before that, 5.21 on the join scan and 6.07 on the served query once
# binding attributes went straight to the operator that binds them
# (they read 5.32 and 6.21 before); 6.42 on the wrapped scan and 4.70
# on the browse query once a fill reply became one flat record from
# wrapper to buffer (they read 7.48 and 5.71 before).  The
# commits before read 8.80 on the wrapped scan (before the buffer's
# open tree became node tables), 8.39 and 9.36 (join scan and served
# query, before sources answered commands from node tables and values
# were walked by their owner), 11.60 and 9.03, 12.61 and 10.03, and
# 19.98 and 16.48 (join and wrapped scan).
@pytest.mark.parametrize("register, config, bound", [
    (_join_scan, EngineConfig(), 5.3),
    (_wrapped_scan, EngineConfig(), 6.7),
    (_served_sessions, EngineConfig(), 6.2),
    (_browse, EngineConfig(), 4.85),
    (_cache_cold, EngineConfig(fragment_cache=True), 7.0),
], ids=["join_scan", "wrapped_scan", "served_sessions", "browse",
        "cache_cold"])
def test_python_calls_per_source_navigation(register, config, bound):
    """May shrink, never grow past the bound without someone editing
    it on purpose."""
    measured = _calls_per_navigation(register, config)
    assert measured <= bound, \
        "%.2f Python calls per source navigation" % measured


def _prepare_calls(mediator, query):
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        mediator.prepare(query)
    finally:
        sys.setprofile(previous)
    return calls


# Measured when the mediator began keeping prepared plans per query
# text: 999 -> 306 calls on the served_sessions query and 1 656 -> 439
# on Figure 3 (the first prepare parses, inlines, validates and
# optimizes; a repeat builds only the context and the lazy operators).
# Before, a repeat cost what the first did (ratio 1.02).
@pytest.mark.parametrize("register", [_served_sessions, _join_scan],
                         ids=["served_sessions", "figure_3"])
def test_a_repeated_prepare_skips_query_processing(register):
    mediator = MIXMediator(EngineConfig())
    query = register(mediator)
    first = _prepare_calls(mediator, query)
    repeat = _prepare_calls(mediator, query)
    assert repeat <= 0.35 * first, (first, repeat)


def test_a_fill_allocates_no_object_per_shipped_node():
    """A fill reply is one flat record: shipping a 1 001-node subtree
    leaves its tuples behind, not an object per node (2.01 blocks per
    node while each node was a frozen fragment object)."""
    server = TreeLXPServer(Tree("r", [Tree("x%d" % i)
                                      for i in range(1000)]),
                           chunk_size=1000)
    gc.collect()
    gc.disable()
    try:
        before = sys.getallocatedblocks()
        reply = server.fill(("root",))
        allocated = sys.getallocatedblocks() - before
    finally:
        gc.enable()
    assert len(reply.labels) == 1001
    assert allocated / 1001 < 0.1, allocated


class _CountedLock:
    """A named lock that counts the sections entered on it."""

    def __init__(self, lock, name, sections):
        self._lock, self._name, self._sections = lock, name, sections

    def __enter__(self):
        self._sections[self._name] += 1
        return self._lock.__enter__()

    def __exit__(self, *exc):
        return self._lock.__exit__(*exc)

    def acquire(self, *args, **kwargs):
        self._sections[self._name] += 1
        return self._lock.acquire(*args, **kwargs)

    def release(self):
        self._lock.release()


def test_lock_sections_per_source_navigation_on_a_join_scan():
    """Caches and source counters take no lock; the meter's lock is
    taken at prepare and read, never per navigation.  Read about 2 per
    navigation while both were locked."""
    sections = collections.Counter()
    previous = locks._factory

    def factory(name, reentrant):
        lock = (previous(name, reentrant) if previous is not None
                else threading.RLock() if reentrant else threading.Lock())
        return _CountedLock(lock, name, sections)

    locks.set_lock_factory(factory)
    try:
        mediator = MIXMediator(EngineConfig())
        query = _join_scan(mediator)
        answer = mediator.prepare(query).root.to_tree()
    finally:
        locks.set_lock_factory(previous)
    navigations = mediator.total_source_navigations()
    assert navigations > 500 and answer.children
    assert sum(sections.values()) / navigations <= 0.01, sections
