"""Unit tests for individual lazy mediators: each operator's navigation
must agree with the eager reference semantics, binding by binding."""

import pytest

from repro.algebra import (
    And,
    Comparison,
    Concatenate,
    Const,
    Constant,
    CreateElement,
    Difference,
    Distinct,
    GetDescendants,
    GroupBy,
    Join,
    Materialize,
    Not,
    Or,
    OrderBy,
    Project,
    Rename,
    Select,
    Source,
    Union,
    Var,
    evaluate_bindings,
)
from repro.lazy import (
    BindingsDocument,
    LazyError,
    LazySource,
    build_lazy_plan,
    materialize_value,
    value_text_of,
)
from repro.navigation import (
    CountingDocument,
    MaterializedDocument,
    materialize,
)
from repro.runtime import MISS, ExecutionContext
from repro.xtree import Tree, elem, leaf

from .fixtures import fig4_sources, homes_source


def lazy_of(plan, trees, cache=True):
    docs = {url: MaterializedDocument(t) for url, t in trees.items()}
    return build_lazy_plan(plan, docs,
                           ExecutionContext.create(cache_enabled=cache))


def assert_lazy_matches_eager(plan, trees, cache=True):
    lazy = lazy_of(plan, trees, cache)
    expected = evaluate_bindings(plan, trees).to_tree()
    assert materialize(BindingsDocument(lazy)) == expected


HOMES_WITH_ZIPS = GetDescendants(
    GetDescendants(Source("homesSrc", "root"), "root", "homes.home", "H"),
    "H", "zip._", "V")
ZIPS = Project(HOMES_WITH_ZIPS, ["V"])
SCHOOL_ZIPS = Project(GetDescendants(
    GetDescendants(Source("schoolsSrc", "r2"), "r2", "schools.school",
                   "S"),
    "S", "zip._", "W"), ["W"])

#: one plan per operator kind, each with at least one output binding
EVERY_KIND = {
    "source": Source("homesSrc", "root"),
    "getDescendants": HOMES_WITH_ZIPS,
    "select": Select(HOMES_WITH_ZIPS,
                     Comparison(Var("V"), "!=", Const("none"))),
    "project": ZIPS,
    "rename": Rename(HOMES_WITH_ZIPS, {"V": "Z"}),
    "constant": Constant(HOMES_WITH_ZIPS, leaf("k"), "K"),
    "distinct": Distinct(ZIPS),
    "join": Join(HOMES_WITH_ZIPS, SCHOOL_ZIPS,
                 Comparison(Var("V"), "=", Var("W"))),
    "union": Union(ZIPS, ZIPS),
    "difference": Difference(ZIPS, Select(
        ZIPS, Comparison(Var("V"), "=", Const("none")))),
    "materialize": Materialize(HOMES_WITH_ZIPS),
    "groupBy": GroupBy(HOMES_WITH_ZIPS, ["V"], [("H", "Hs")]),
    "orderBy": OrderBy(HOMES_WITH_ZIPS, ["V"]),
    "concatenate": Concatenate(HOMES_WITH_ZIPS, ["H", "V"], "C"),
    "createElement": CreateElement(HOMES_WITH_ZIPS, "made", "H", "E"),
}


class TestLazySource:
    def test_single_binding(self):
        op = LazySource(MaterializedDocument(homes_source()), "root")
        b = op.first_binding()
        assert b is not None
        assert op.next_binding(b) is None

    def test_value_navigation(self):
        op = LazySource(MaterializedDocument(homes_source()), "root")
        vid = op.attribute(op.first_binding(), "root")
        assert op.v_fetch(vid) == "homesSrc"
        assert op.v_right(vid) is None
        child = op.v_down(vid)
        assert op.v_fetch(child) == "homes"

    def test_unknown_variable_raises(self):
        """The schema is checked once, when the plan is built; past
        that, ``b.X`` for an ``X`` the operator lacks still raises, on
        every operator kind, observed or not."""
        op = LazySource(MaterializedDocument(homes_source()), "root")
        with pytest.raises(LazyError):
            op.attribute(op.first_binding(), "nope")
        docs = {url: MaterializedDocument(tree)
                for url, tree in fig4_sources().items()}
        for kind, plan in sorted(EVERY_KIND.items()):
            for observe in (False, True):
                op = build_lazy_plan(plan, docs, ExecutionContext.create(
                    observe_operators=observe))
                binding = op.first_binding()
                assert binding is not None, kind
                for var in op.variables:
                    op.attribute(binding, var)
                with pytest.raises(LazyError):
                    op.attribute(binding, "nope")

    def test_matches_eager(self):
        assert_lazy_matches_eager(Source("homesSrc", "root"),
                                  {"homesSrc": homes_source()})


class TestLazyGetDescendants:
    def test_matches_eager_simple(self):
        assert_lazy_matches_eager(HOMES_WITH_ZIPS,
                                  {"homesSrc": homes_source()})

    def test_matches_eager_wildcards(self):
        doc = {"src": Tree("src", [elem(
            "r", elem("a", elem("b", "1")), elem("b", "2"),
            elem("c", elem("a", elem("b", "3"))))])}
        plan = GetDescendants(Source("src", "root"), "root", "_*.b", "X")
        assert_lazy_matches_eager(plan, doc)

    def test_matches_eager_recursive(self):
        doc = {"src": Tree("src", [elem(
            "a", elem("a", elem("a", "x"), elem("b")), elem("a"))])}
        plan = GetDescendants(Source("src", "root"), "root", "a+", "X")
        assert_lazy_matches_eager(plan, doc)
        assert_lazy_matches_eager(plan, doc, cache=False)

    def test_matches_eager_alternation(self):
        doc = {"src": Tree("src", [elem(
            "r", elem("x", "1"), elem("y", "2"), elem("z", "3"))])}
        plan = GetDescendants(Source("src", "root"), "root",
                              "r.(x|z)", "X")
        assert_lazy_matches_eager(plan, doc)

    def test_stacked_getdescendants(self):
        assert_lazy_matches_eager(
            GetDescendants(HOMES_WITH_ZIPS, "H", "addr", "A"),
            {"homesSrc": homes_source()})

    def test_match_value_is_detached(self):
        trees = {"homesSrc": homes_source()}
        op = lazy_of(HOMES_WITH_ZIPS, trees)
        b = op.first_binding()
        vid = op.attribute(b, "H")
        # The home element has a sibling in the source, but as a bound
        # value it is a root.
        assert vid[0].v_right(vid) is None

    def test_resume_from_stale_binding_id(self):
        # Node-ids encode associations: an old id stays navigable.
        trees = {"homesSrc": homes_source()}
        op = lazy_of(HOMES_WITH_ZIPS, trees)
        first = op.first_binding()
        second = op.next_binding(first)
        again = op.next_binding(first)
        assert again == second

    def test_no_matches(self):
        plan = GetDescendants(Source("src", "root"), "root", "zzz", "X")
        assert_lazy_matches_eager(plan,
                                  {"src": Tree("src", [elem("a")])})


class TestLazySelectProjectConstant:
    def test_select_matches_eager(self):
        plan = Select(HOMES_WITH_ZIPS,
                      Comparison(Var("V"), "=", Const("91223")))
        assert_lazy_matches_eager(plan, {"homesSrc": homes_source()})

    def test_select_empty_result(self):
        plan = Select(HOMES_WITH_ZIPS,
                      Comparison(Var("V"), "=", Const("zzz")))
        assert_lazy_matches_eager(plan, {"homesSrc": homes_source()})

    def test_select_on_structured_value_text(self):
        # Predicate over $H compares the concatenated leaf text.
        plan = Select(HOMES_WITH_ZIPS,
                      Comparison(Var("H"), "=",
                                 Const("La Jolla91220")))
        assert_lazy_matches_eager(plan, {"homesSrc": homes_source()})

    def test_project(self):
        plan = Project(HOMES_WITH_ZIPS, ["V", "H"])
        assert_lazy_matches_eager(plan, {"homesSrc": homes_source()})

    def test_constant(self):
        plan = Constant(HOMES_WITH_ZIPS,
                        elem("tag", elem("inner", "1")), "C")
        assert_lazy_matches_eager(plan, {"homesSrc": homes_source()})

    def test_constant_siblings_at_every_depth(self):
        """``r`` across the children of a multi-child constant, at the
        root's children and below: ``c[a, b, d[e, f]]`` must not
        answer ``c[a]``."""
        value = elem("c", elem("a"), elem("b"), elem("d", "e", "f"))
        plan = Constant(HOMES_WITH_ZIPS, value, "C")
        assert_lazy_matches_eager(plan, {"homesSrc": homes_source()})


class TestLazyJoin:
    def _join_plan(self):
        right = GetDescendants(
            GetDescendants(Source("schoolsSrc", "r2"),
                           "r2", "schools.school", "S"),
            "S", "zip._", "W")
        return Join(HOMES_WITH_ZIPS, right,
                    Comparison(Var("V"), "=", Var("W")))

    def test_matches_eager(self):
        assert_lazy_matches_eager(self._join_plan(), fig4_sources())

    def test_matches_eager_without_cache(self):
        assert_lazy_matches_eager(self._join_plan(), fig4_sources(),
                                  cache=False)

    def test_inner_cache_reduces_source_navigations(self):
        from repro.navigation import CountingDocument
        trees = fig4_sources()
        plan = self._join_plan()

        def total_navs(cache):
            docs = {u: CountingDocument(MaterializedDocument(t))
                    for u, t in trees.items()}
            op = build_lazy_plan(
                plan, docs, ExecutionContext.create(cache_enabled=cache))
            materialize(BindingsDocument(op))
            return sum(d.total for d in docs.values())

        assert total_navs(True) < total_navs(False)

    def test_empty_inner(self):
        right = GetDescendants(Source("schoolsSrc", "r2"),
                               "r2", "nothing", "S")
        plan = Join(HOMES_WITH_ZIPS, right,
                    Comparison(Var("V"), "=", Var("S")))
        assert_lazy_matches_eager(plan, fig4_sources())


class TestLoweredPredicates:
    """``select`` and ``join`` run their predicate as a closure lowered
    at construction.  The reference swaps in the per-test
    interpretation they used before (``Predicate.evaluate`` over a
    lookup): same bindings, the same source commands in the same
    order, the same cache traffic -- for every predicate shape and
    cache mode."""

    RIGHT = GetDescendants(
        GetDescendants(Source("schoolsSrc", "r2"),
                       "r2", "schools.school", "S"),
        "S", "zip._", "W")
    V_IS_W = Comparison(Var("V"), "=", Var("W"))
    JOIN_PREDICATES = [
        V_IS_W,
        Comparison(Var("W"), ">=", Var("V")),
        # a left variable mentioned twice: navigated once per test
        And((V_IS_W, Comparison(Var("V"), "!=", Const("91220")))),
        # both sides twice, short-circuits on either branch
        Or((V_IS_W, Comparison(Var("W"), "<", Var("V")))),
        Not(And((Comparison(Var("V"), "<", Const(91223)), V_IS_W))),
        Comparison(Const(1), "=", Const("1.0")),
    ]
    SELECT_PREDICATES = [
        Comparison(Var("V"), "=", Const("91223")),
        # one variable read twice: select keeps no memo, so two walks
        Or((Comparison(Var("V"), "=", Const("91223")),
            Comparison(Var("V"), "=", Const("91220")))),
        And((Comparison(Var("H"), "!=", Var("V")),
             Not(Comparison(Const("91221"), ">", Var("V"))))),
    ]
    CONFIGS = [{}, {"cache_enabled": False}, {"cache_budget": 3}]

    @staticmethod
    def _interpreted_join_test(join):
        def test(env):
            lb, right_index, _memo = env
            left_texts = {}

            def lookup(var):
                if var in join._left_vars:
                    if var not in left_texts:
                        left_texts[var] = value_text_of(
                            join.left.attribute(lb, var))
                    return left_texts[var]
                text = join._inner_texts.get((right_index, var), MISS)
                if text is not MISS:
                    return text
                rb = join._inner_binding(right_index)
                text = value_text_of(join.right.attribute(rb, var))
                join._inner_texts.put((right_index, var), text)
                return text

            return join.predicate.evaluate(lookup)
        return test

    @staticmethod
    def _interpreted_select_test(select):
        return lambda ib: select.predicate.evaluate(
            lambda var: value_text_of(select.child.attribute(ib, var)))

    def _run(self, plan, config, interpret=None):
        docs = {url: CountingDocument(MaterializedDocument(tree),
                                      log=True)
                for url, tree in fig4_sources().items()}
        context = ExecutionContext.create(**config)
        op = build_lazy_plan(plan, docs, context)
        if interpret is not None:
            op._test = interpret(op)
        answer = materialize(BindingsDocument(op))
        caches = context.caches.as_dict()
        return (answer, {url: doc.trace for url, doc in docs.items()},
                caches)

    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("predicate", JOIN_PREDICATES, ids=str)
    def test_join(self, predicate, config):
        plan = Join(HOMES_WITH_ZIPS, self.RIGHT, predicate)
        lowered = self._run(plan, config)
        assert lowered == self._run(plan, config,
                                    self._interpreted_join_test)
        assert lowered[0] == evaluate_bindings(
            plan, fig4_sources()).to_tree()

    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("predicate", SELECT_PREDICATES, ids=str)
    def test_select(self, predicate, config):
        plan = Select(HOMES_WITH_ZIPS, predicate)
        lowered = self._run(plan, config)
        assert lowered == self._run(plan, config,
                                    self._interpreted_select_test)
        assert lowered[0] == evaluate_bindings(
            plan, fig4_sources()).to_tree()


class TestLazyGroupBy:
    def _grouped(self):
        right = GetDescendants(
            GetDescendants(Source("schoolsSrc", "r2"),
                           "r2", "schools.school", "S"),
            "S", "zip._", "W")
        join = Join(HOMES_WITH_ZIPS, right,
                    Comparison(Var("V"), "=", Var("W")))
        return GroupBy(join, ["H"], [("S", "LSs")])

    def test_matches_eager(self):
        assert_lazy_matches_eager(self._grouped(), fig4_sources())

    def test_matches_eager_without_cache(self):
        assert_lazy_matches_eager(self._grouped(), fig4_sources(),
                                  cache=False)

    def test_group_member_navigation_example8(self):
        """The Example 8 instance: groups and member order."""
        doc = Tree("bsrc", [Tree("pairs", [
            elem("p", elem("h", "home1"), elem("s", "school1")),
            elem("p", elem("h", "home1"), elem("s", "school2")),
            elem("p", elem("h", "home2"), elem("s", "school3")),
            elem("p", elem("h", "home1"), elem("s", "school4")),
            elem("p", elem("h", "home3"), elem("s", "school5")),
        ])])
        base = GetDescendants(Source("bsrc", "root"), "root",
                              "pairs.p", "P")
        plan = GroupBy(
            GetDescendants(GetDescendants(base, "P", "h", "H"),
                           "P", "s", "S"),
            ["H"], [("S", "LSs")])
        trees = {"bsrc": doc}
        assert_lazy_matches_eager(plan, trees)
        out = evaluate_bindings(plan, trees)
        collected = [[s.text() for s in b.value("LSs").children]
                     for b in out]
        assert collected == [["school1", "school2", "school4"],
                             ["school3"], ["school5"]]

    def test_empty_key_group_over_empty_input(self):
        base = GetDescendants(Source("src", "root"), "root", "none", "X")
        plan = GroupBy(base, [], [("X", "Xs")])
        assert_lazy_matches_eager(plan,
                                  {"src": Tree("src", [elem("a")])})

    def test_multi_aggregation(self):
        plan = GroupBy(HOMES_WITH_ZIPS, ["H"],
                       [("V", "Vs"), ("H", "Hs")])
        assert_lazy_matches_eager(plan, {"homesSrc": homes_source()})


class TestLazyConstruction:
    def _construction(self):
        grouped = GroupBy(HOMES_WITH_ZIPS, ["H"], [("V", "Vs")])
        content = Concatenate(grouped, ["H", "Vs"], "HVs")
        return CreateElement(content, "med_home", "HVs", "M")

    def test_concatenate_matches_eager(self):
        grouped = GroupBy(HOMES_WITH_ZIPS, ["H"], [("V", "Vs")])
        plan = Concatenate(grouped, ["H", "Vs"], "HVs")
        assert_lazy_matches_eager(plan, {"homesSrc": homes_source()})

    def test_concatenate_of_two_empty_lists(self):
        base = GetDescendants(Source("src", "root"), "root", "none", "X")
        grouped = GroupBy(base, [], [("X", "Xs")])
        plan = Concatenate(grouped, ["Xs", "Xs"], "Out")
        assert_lazy_matches_eager(plan,
                                  {"src": Tree("src", [elem("a")])})

    def test_create_element_matches_eager(self):
        assert_lazy_matches_eager(self._construction(),
                                  {"homesSrc": homes_source()})

    def test_create_element_label_without_input_access(self):
        """Figure 9: fetching the created label costs nothing below."""
        from repro.navigation import CountingDocument
        docs = {"homesSrc": CountingDocument(
            MaterializedDocument(homes_source()))}
        op = build_lazy_plan(self._construction(), docs)
        binding = op.first_binding()
        before = docs["homesSrc"].total
        vid = op.attribute(binding, "M")
        assert op.v_fetch(vid) == "med_home"
        assert docs["homesSrc"].total == before

    def test_create_element_variable_label(self):
        base = Constant(HOMES_WITH_ZIPS, leaf("dyn"), "T")
        grouped = GroupBy(base, ["H", "T"], [("V", "Vs")])
        plan = CreateElement(grouped, ("var", "T"), "Vs", "E")
        assert_lazy_matches_eager(plan, {"homesSrc": homes_source()})


class TestLazyOrderBySetOps:
    def _letters(self, *labels):
        doc = Tree("src", [Tree("r", [elem("x", l) for l in labels])])
        plan = GetDescendants(
            GetDescendants(Source("src", "root"), "root", "r.x", "X"),
            "X", "_", "V")
        return plan, {"src": doc}

    def test_order_by_matches_eager(self):
        plan, trees = self._letters("b", "c", "a")
        assert_lazy_matches_eager(OrderBy(plan, ["V"]), trees)

    def test_order_by_descending(self):
        plan, trees = self._letters("2", "10", "1")
        assert_lazy_matches_eager(OrderBy(plan, ["V"], descending=True),
                                  trees)

    def test_order_by_forces_full_scan(self):
        from repro.navigation import CountingDocument
        plan, trees = self._letters("b", "c", "a")
        docs = {u: CountingDocument(MaterializedDocument(t))
                for u, t in trees.items()}
        op = build_lazy_plan(OrderBy(plan, ["V"]), docs)
        source = docs["src"]
        assert source.total == 0
        op.first_binding()
        # Must have scanned all three x elements already.
        forced = source.total
        materialize(BindingsDocument(op))
        assert forced > 6  # well beyond a single-binding prefix

    def test_union_matches_eager(self):
        plan, trees = self._letters("a", "b")
        assert_lazy_matches_eager(Union(plan, plan), trees)

    def test_difference_matches_eager(self):
        plan, trees = self._letters("a", "b", "c")
        only_a = Select(plan, Comparison(Var("V"), "=", Const("a")))
        assert_lazy_matches_eager(Difference(plan, only_a), trees)

    def test_distinct_matches_eager(self):
        plan, trees = self._letters("a", "b", "a", "c", "b")
        assert_lazy_matches_eager(Distinct(Project(plan, ["V"])), trees)

    def test_distinct_without_cache(self):
        plan, trees = self._letters("a", "a", "b")
        assert_lazy_matches_eager(Distinct(Project(plan, ["V"])), trees,
                                  cache=False)


class TestValueHelpers:
    def test_value_text_of_leaf_costs_one_fetch(self):
        from repro.navigation import CountingDocument
        docs = {"homesSrc": CountingDocument(
            MaterializedDocument(homes_source()))}
        op = build_lazy_plan(HOMES_WITH_ZIPS, docs)
        binding = op.first_binding()
        vid = op.attribute(binding, "V")
        before = docs["homesSrc"].counters.fetch
        assert value_text_of(vid) == "91220"
        # one failed v_down probe + one fetch
        assert docs["homesSrc"].counters.fetch - before <= 1

    def test_materialize_value(self):
        trees = {"homesSrc": homes_source()}
        op = lazy_of(HOMES_WITH_ZIPS, trees)
        vid = op.attribute(op.first_binding(), "H")
        assert materialize_value(vid) == \
            elem("home", elem("addr", "La Jolla"), elem("zip", "91220"))
