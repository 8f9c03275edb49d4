"""Differential proof for source-native pushdown (PR 6).

The pushdown compiler's contract is *observational equivalence*: with
``EngineConfig(pushdown=True)`` every answer must be byte-identical to
the lazy navigation-driven reference run, only the source-side cost
may change.  This suite checks the contract three ways:

* the E4 workload (selective view over a relational source) and the
  E6 workload (Example 8's pair document under a groupBy plan),
* the full heterogeneous stack (XML + relational + OODB + web) on a
  three-way join,
* randomized plans (hypothesis, reusing the strategies of the lazy
  equivalence suite) against both the un-pushed run and the eager
  oracle,

and proves the *default* path is untouched: with ``pushdown`` off (the
default) no pushdown event is ever emitted, ``stats()`` has no
pushdown section, and the executed plan is the prepared plan itself --
the golden navigation traces of ``tests/golden/`` therefore keep
covering the default path byte-for-byte.
"""

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import (
    Comparison,
    GetDescendants,
    GroupBy,
    Source,
    Var,
    evaluate_bindings,
)
from repro.bench import book_catalog
from repro.lazy import BindingsDocument, build_lazy_plan
from repro.mediator import MIXMediator
from repro.navigation import materialize
from repro.oodb import ObjectStore
from repro.pushdown.compiler import compile_pushdown
from repro.relational import Connection, Database
from repro.runtime import EngineConfig, ExecutionContext, Tracer
from repro.webstore import HttpSimulator, make_catalog_site
from repro.wrappers import (
    OODBLXPWrapper,
    RelationalLXPWrapper,
    WebLXPWrapper,
    XMLFileWrapper,
)
from repro.wrappers.base import buffered
from repro.xtree import Tree, elem, to_xml

from .test_lazy_equivalence import _plans, _source_tree

WALKS = int(os.environ.get("DIFF_WALKS", "25"))


# ----------------------------------------------------------------------
# Workload fixtures
# ----------------------------------------------------------------------

def _items_database(rows=200):
    """The E4 workload: a selective view over ``bigdb.items``."""
    db = Database("bigdb")
    table = db.create_table("items", [("name", "str"), ("qty", "int")])
    table.insert_many([("item%d" % i, i % 97) for i in range(rows)])
    return db


E4_QUERY = ("CONSTRUCT <hits> $N {$N} </hits> {} "
            "WHERE bigdb items._ $R AND $R name._ $N "
            "AND $R qty._ $Q AND $Q = 42")


def _e4_mediator(pushdown, tracer=None):
    med = MIXMediator(EngineConfig(pushdown=pushdown), tracer=tracer)
    med.register_wrapper(
        "bigdb", RelationalLXPWrapper(Connection(_items_database()),
                                      chunk_size=20))
    return med


# The E6 instance (Example 8's pair document) under its groupBy plan.
EXAMPLE8_DOC = Tree("bsrc", [Tree("pairs", [
    elem("p", elem("h", "home1"), elem("s", "school1")),
    elem("p", elem("h", "home1"), elem("s", "school2")),
    elem("p", elem("h", "home2"), elem("s", "school3")),
    elem("p", elem("h", "home1"), elem("s", "school4")),
    elem("p", elem("h", "home3"), elem("s", "school5")),
])])


def _e6_plan():
    base = GetDescendants(Source("bsrc", "root"), "root", "pairs.p",
                          "P")
    bindings = GetDescendants(GetDescendants(base, "P", "h", "H"),
                              "P", "s", "S")
    return GroupBy(bindings, ["H"], [("S", "LSs")])


def _full_stack_mediator(pushdown, tracer=None):
    """XML + relational + OODB + web, all four wrapper families."""
    med = MIXMediator(EngineConfig(pushdown=pushdown), tracer=tracer)
    med.register_wrapper("homesSrc", XMLFileWrapper("homesSrc", """
        <homes>
          <home><addr>La Jolla</addr><zip>91220</zip></home>
          <home><addr>El Cajon</addr><zip>91223</zip></home>
        </homes>"""))
    db = Database("schooldb")
    table = db.create_table("schools", [("dir", "str"), ("zip", "str")])
    table.insert_many([("Smith", "91220"), ("Bar", "91220"),
                       ("Hart", "91223")])
    med.register_wrapper("schooldb",
                         RelationalLXPWrapper(Connection(db),
                                              chunk_size=2))
    store = ObjectStore("inspections")
    store.define_class("Inspection", ["director", "grade"])
    store.create("Inspection", director="Smith", grade="A")
    store.create("Inspection", director="Hart", grade="B")
    med.register_wrapper("inspections", OODBLXPWrapper(store))
    books = book_catalog("amazon", 30, seed=5)
    site = make_catalog_site("amazon", books, page_size=10)
    med.register_wrapper("amazon",
                         WebLXPWrapper(HttpSimulator(site)))
    return med


THREE_WAY_QUERY = """
CONSTRUCT <report>
            <entry> $H $D $G {$G} </entry> {$H, $D}
          </report> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1
  AND schooldb schools._ $S AND $S zip._ $V2 AND $S dir._ $D
  AND inspections Inspection.object $I AND $I director._ $D2
  AND $I grade $G AND $V1 = $V2 AND $D = $D2
"""

WEB_QUERY = ("CONSTRUCT <titles> $T {$T} </titles> {} "
             "WHERE amazon book.title._ $T")


# ----------------------------------------------------------------------
# E4 / E6 workloads: byte-identical answers, collapsed navigation
# ----------------------------------------------------------------------

class TestWorkloads:
    def test_e4_answers_byte_identical(self):
        off = _e4_mediator(False).prepare(E4_QUERY).materialize()
        on = _e4_mediator(True).prepare(E4_QUERY).materialize()
        assert to_xml(on) == to_xml(off)

    def test_e4_source_navigation_collapses(self):
        med_off = _e4_mediator(False)
        med_off.prepare(E4_QUERY).materialize()
        navs_off = med_off.total_source_navigations()
        med_on = _e4_mediator(True)
        result = med_on.prepare(E4_QUERY)
        result.materialize()
        navs_on = med_on.total_source_navigations()
        assert navs_off >= 10 * max(navs_on, 1)
        [decision] = result.pushdown_decisions
        assert decision.pushed and decision.url == "bigdb"
        assert "WHERE qty = 42" in decision.detail

    def test_e4_decisions_surface_in_stats_and_explain(self):
        result = _e4_mediator(True).prepare(E4_QUERY)
        report = result.stats()
        assert report["pushdown"]["pushed"] == 1
        [entry] = report["pushdown"]["decisions"]
        assert entry["url"] == "bigdb" and entry["pushed"]
        assert "pushed bigdb" in result.explain()

    def test_e6_plan_byte_identical(self):
        plan = _e6_plan()
        expected = evaluate_bindings(
            plan, {"bsrc": EXAMPLE8_DOC}).to_tree()
        for pushdown in (False, True):
            context = ExecutionContext.create(
                EngineConfig(pushdown=pushdown))
            # The wrapper wraps its document into the exported
            # document node itself, so hand it the root element:
            # the export is then exactly EXAMPLE8_DOC.
            wrapper = XMLFileWrapper("bsrc", EXAMPLE8_DOC.child(0))
            executed = plan
            if pushdown:
                executed, decisions = compile_pushdown(
                    plan, {"bsrc": wrapper}, context)
                assert any(d.pushed for d in decisions)
            lazy = build_lazy_plan(executed, {"bsrc": buffered(wrapper)},
                                   context)
            assert materialize(BindingsDocument(lazy)) == expected


# ----------------------------------------------------------------------
# The heterogeneous stack: every wrapper family negotiates
# ----------------------------------------------------------------------

class TestFullStack:
    def test_three_way_join_byte_identical(self):
        off = _full_stack_mediator(False).prepare(
            THREE_WAY_QUERY).materialize()
        on_result = _full_stack_mediator(True).prepare(THREE_WAY_QUERY)
        assert to_xml(on_result.materialize()) == to_xml(off)
        pushed = {d.url for d in on_result.pushdown_decisions
                  if d.pushed}
        # All three chain-rooted sources of the join pushed natively.
        assert {"homesSrc", "schooldb", "inspections"} <= pushed

    def test_web_listing_byte_identical(self):
        off = _full_stack_mediator(False).prepare(
            WEB_QUERY).materialize()
        on_result = _full_stack_mediator(True).prepare(WEB_QUERY)
        assert to_xml(on_result.materialize()) == to_xml(off)
        [decision] = on_result.pushdown_decisions
        assert decision.pushed and decision.url == "amazon"

    def test_web_page_dialogue_collapses(self):
        med_off = _full_stack_mediator(False)
        med_off.prepare(WEB_QUERY).materialize()
        navs_off = med_off.total_source_navigations()
        med_on = _full_stack_mediator(True)
        med_on.prepare(WEB_QUERY).materialize()
        navs_on = med_on.total_source_navigations()
        assert navs_off >= 10 * max(navs_on, 1)


# ----------------------------------------------------------------------
# Randomized plans: pushdown-on == pushdown-off == eager oracle
# ----------------------------------------------------------------------

def _materialized(plan, tree, pushdown):
    context = ExecutionContext.create(EngineConfig(pushdown=pushdown))
    # ``tree`` is Tree("src", [element]); the wrapper adds the
    # document node itself, so its export equals ``tree`` exactly.
    wrapper = XMLFileWrapper("src", tree.child(0))
    executed = plan
    if pushdown:
        executed, _ = compile_pushdown(plan, {"src": wrapper}, context)
    lazy = build_lazy_plan(executed, {"src": buffered(wrapper)},
                           context)
    return materialize(BindingsDocument(lazy))


@settings(max_examples=WALKS, deadline=None)
@given(tree=_source_tree, plan=_plans())
def test_random_plans_pushdown_is_observationally_silent(tree, plan):
    oracle = evaluate_bindings(plan, {"src": tree}).to_tree()
    off = _materialized(plan, tree, pushdown=False)
    on = _materialized(plan, tree, pushdown=True)
    assert off == oracle
    assert on == oracle


# ----------------------------------------------------------------------
# The default path is untouched
# ----------------------------------------------------------------------

class TestDefaultPathUnchanged:
    def test_pushdown_defaults_off(self):
        assert EngineConfig().pushdown is False

    def test_no_pushdown_events_or_stats_by_default(self):
        tracer = Tracer(record=True)
        med = _full_stack_mediator(False, tracer=tracer)
        result = med.prepare(THREE_WAY_QUERY)
        result.materialize()
        assert all(e.layer != "pushdown" for e in tracer.events)
        assert "pushdown" not in result.stats()
        assert "pushdown:" not in result.explain()
        assert result.pushdown_decisions == ()

    def test_executed_plan_is_prepared_plan_by_default(self):
        result = _e4_mediator(False).prepare(E4_QUERY)
        assert result.executed_plan is result.plan
