"""The feature lattice: engine features against the eager oracle
*together*, not one at a time.

Every feature is differential-tested against the default path on its
own elsewhere; here Hypothesis draws a point of the product

    pushdown x fragment_cache x batch_navigations
      x look-ahead (none / 2)
      x on_source_failure (fail / degrade) x cache_budget (None / 8)
      x observe_operators

and one of three scenarios, chosen so that every axis is live on some
source:

* Figure 3 over ``MaterializedDocument`` sources: the operator caches
  (and so the budget) and the join / groupBy value ids;
* the names listing over a ``RelationalLXPWrapper``: buffer policy,
  resilience seam and a pushable chain;
* cheap books over two ``TreeLXPServer`` bookstores through the
  ``allbooks`` view: the fragment cache (the stores advertise a
  snapshot version) and union / createElement ids.

The client walks the virtual answer with the revisiting walker of
:mod:`tests.test_differential_walks`, then reads the rest of it; both
must match the eager answer.  The same walk is repeated with
``observe_operators`` flipped: observing must not change a single
source navigation.  No feature may leave a thread behind.

In-process only; the served leg of the lattice comes later.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EngineConfig, MIXMediator
from repro.bench import (
    ALLBOOKS_VIEW_NAME,
    CHEAP_DB_BOOKS_QUERY,
    HOMES_SCHOOLS_QUERY,
    allbooks_plan,
    homes_and_schools,
    two_bookstores,
)
from repro.buffer import TreeLXPServer
from repro.navigation import MaterializedDocument, materialize, \
    run_navigation
from repro.relational import Connection, Database
from repro.runtime.fragcache import reset_shared_store
from repro.wrappers import RelationalLXPWrapper
from repro.xtree.tree import Tree

from .fixtures import thread_ledger
from .test_differential_walks import WALKS, _walks

NAMES_QUERY = ("CONSTRUCT <names> $N {$N} </names> {} "
               "WHERE bigdb items._ $R AND $R name._ $N")


@st.composite
def _configs(draw):
    return EngineConfig(
        pushdown=draw(st.booleans()),
        fragment_cache=draw(st.booleans()),
        batch_navigations=draw(st.booleans()),
        prefetch=draw(st.sampled_from([0, 2])),
        on_source_failure=draw(st.sampled_from(["fail", "degrade"])),
        cache_budget=draw(st.sampled_from([None, 8])),
        observe_operators=draw(st.booleans()))


def _figure3(size):
    trees = homes_and_schools(1 + size % 6)

    def register(mediator):
        for name, tree in trees.items():
            mediator.register_source(name, MaterializedDocument(tree))
    return register, HOMES_SCHOOLS_QUERY


def _names(size):
    rng = random.Random(size)
    database = Database("bigdb")
    table = database.create_table("items",
                                  [("name", "str"), ("qty", "int")])
    table.insert_many([("item%02d" % i, rng.randrange(97))
                       for i in range(size)])

    def register(mediator):
        mediator.register_wrapper("bigdb", RelationalLXPWrapper(
            Connection(database), chunk_size=7))
    return register, NAMES_QUERY


def _cheap_books(size):
    amazon, bn = two_bookstores(4 + size // 2)
    stores = {"amazonSrc": amazon, "bnSrc": bn}

    def register(mediator):
        for name, books in stores.items():
            mediator.register_wrapper(name, TreeLXPServer(
                Tree(name, [Tree("catalog", books)]), chunk_size=5))
        mediator.register_view(ALLBOOKS_VIEW_NAME, allbooks_plan())
    return register, CHEAP_DB_BOOKS_QUERY


SCENARIOS = {"figure3": _figure3, "names": _names,
             "cheap_books": _cheap_books}


def _outcome(document, nav):
    result = run_navigation(document, nav)
    return result.labels, [p is None for p in result.pointers]


def _run(register, query, config, nav):
    """Walk, then read the whole answer, on a fresh mediator; returns
    what the client saw and the source navigations it cost."""
    mediator = MIXMediator(config)
    register(mediator)
    document = mediator.prepare(query).document
    walked = _outcome(document, nav)
    answer = materialize(document)
    return walked, answer, mediator.total_source_navigations()


@settings(max_examples=4 * WALKS, deadline=None)
@given(config=_configs(), scenario=st.sampled_from(sorted(SCENARIOS)),
       size=st.integers(0, 40), nav=_walks())
def test_lattice_point_matches_the_eager_oracle(config, scenario, size,
                                                nav):
    register, query = SCENARIOS[scenario](size)
    oracle = MIXMediator(EngineConfig())
    register(oracle)
    expected = oracle.query_eager(query)
    twin = config.replace(observe_operators=not config.observe_operators)
    reset_shared_store()
    try:
        with thread_ledger() as ledger:
            # the twin runs second: with the fragment cache on, it
            # adopts what the first run stored
            walked, answer, navigations = _run(register, query, config,
                                               nav)
            twin_walked, twin_answer, twin_navigations = _run(
                register, query, twin, nav)
            assert ledger.leaked() == []
    finally:
        reset_shared_store()
    assert walked == _outcome(MaterializedDocument(expected), nav)
    assert answer == twin_answer == expected
    assert twin_walked == walked
    assert twin_navigations == navigations
