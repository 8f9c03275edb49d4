"""A finished query leaves no cyclic garbage.

Each scenario below runs a query to completion and drops it; what it
built must then be freed by reference counting alone.  The check runs
with the collector off and ``gc.DEBUG_SAVEALL`` set, after
``gc.freeze()`` has moved everything alive before the scenario out of
its scans: whatever one explicit ``gc.collect()`` finds afterwards was
kept alive only by a reference cycle.  (A buffer's open tree once was
one: each node pointed at its parent.  So was every recursive closure,
through its own cell.)

The scenarios are those of ``test_hot_path_budget`` -- a join over
materialized sources and a scan through a relational wrapper and the
buffer -- plus a fragment-cache session that writes the shared store
and one that adopts the stored view, a view-inlining query of which
the client reads only the first results, and a selection that reads
the text of a structured value in every binding.
"""

import collections
import gc
import random

import pytest

from repro import EngineConfig, MIXMediator
from repro.bench import (
    ALLBOOKS_VIEW_NAME,
    CHEAP_DB_BOOKS_QUERY,
    HOMES_SCHOOLS_QUERY,
    allbooks_plan,
    browse_first_k,
    homes_and_schools,
    two_bookstores,
)
from repro.buffer import TreeLXPServer
from repro.navigation import MaterializedDocument
from repro.relational import Connection, Database
from repro.runtime.fragcache import reset_shared_store
from repro.wrappers import RelationalLXPWrapper, XMLFileWrapper
from repro.xtree import Tree

NAMES_QUERY = ("CONSTRUCT <names> $N {$N} </names> {} "
               "WHERE bigdb items._ $R AND $R name._ $N")
HITS_QUERY = ("CONSTRUCT <hits> $H {$H} </hits> {} "
              "WHERE homesSrc homes.home $H")
NOWHERE_QUERY = ("CONSTRUCT <hits> $H {$H} </hits> {} "
                 "WHERE homesSrc homes.home $H AND $H addr $A "
                 'AND $A = "nowhere"')


def _join_scan():
    mediator = MIXMediator(EngineConfig())
    for name, tree in homes_and_schools(10, seed=1).items():
        mediator.register_source(name, MaterializedDocument(tree))
    assert mediator.prepare(HOMES_SCHOOLS_QUERY).root.to_tree().children


def _structured_text():
    """A selection reading the text of a structured value (an
    ``addr`` element, not its text leaf) in every home."""
    mediator = MIXMediator(EngineConfig())
    for name, tree in homes_and_schools(10, seed=1).items():
        mediator.register_source(name, MaterializedDocument(tree))
    answer = mediator.prepare(NOWHERE_QUERY).root.to_tree()
    assert answer.label == "hits" and not answer.children


def _wrapped_scan():
    rng = random.Random(1)
    database = Database("bigdb")
    table = database.create_table("items",
                                  [("name", "str"), ("qty", "int")])
    table.insert_many([("item%04d" % i, rng.randrange(97))
                       for i in range(120)])
    mediator = MIXMediator(EngineConfig())
    mediator.register_wrapper(
        "bigdb", RelationalLXPWrapper(Connection(database),
                                      chunk_size=20))
    assert mediator.prepare(NAMES_QUERY).root.to_tree().children


def _cached_session():
    """One fragment-cache session over the shared store."""
    homes = homes_and_schools(30, seed=1)["homesSrc"].children[0]
    mediator = MIXMediator(EngineConfig(fragment_cache=True))
    mediator.register_wrapper(
        "homesSrc", XMLFileWrapper("homesSrc", homes, chunk_size=2))
    assert mediator.prepare(HITS_QUERY).root.to_tree().children


def _cache_cold():
    reset_shared_store()
    _cached_session()


def _cache_warm():
    """The second session adopts the view the first one stored."""
    reset_shared_store()
    _cached_session()
    _cached_session()


def _browse_prefix():
    amazon, bn = two_bookstores(200, seed=1)
    mediator = MIXMediator(EngineConfig())
    for name, books in [("amazonSrc", amazon), ("bnSrc", bn)]:
        mediator.register_wrapper(name, TreeLXPServer(
            Tree(name, [Tree("catalog", books)]), chunk_size=10))
    mediator.register_view(ALLBOOKS_VIEW_NAME, allbooks_plan())
    seen = []
    browse_first_k(mediator.prepare(CHEAP_DB_BOOKS_QUERY).root, 10,
                   per_result=lambda e: seen.append(e.to_tree()))
    assert len(seen) == 10


@pytest.mark.parametrize("scenario", [
    _join_scan, _wrapped_scan, _cache_cold, _cache_warm, _browse_prefix,
    _structured_text,
], ids=["join_scan", "wrapped_scan", "cache_cold", "cache_warm",
        "browse_prefix", "structured_text"])
def test_a_finished_query_leaves_no_cyclic_garbage(scenario):
    # A first run does the once-per-process work (imports, compiled
    # patterns), whose garbage is not the query's.
    scenario()
    gc.collect()
    gc.freeze()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        scenario()
        gc.collect()
        kinds = collections.Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
        gc.unfreeze()
        reset_shared_store()
    assert not kinds, kinds.most_common(8)
