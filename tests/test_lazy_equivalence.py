"""Property-based equivalence: lazy navigation == eager evaluation.

Random plans over random source trees, materialized through the
BindingsDocument adapter, must equal the eager evaluator's output tree
-- with operator caches on and off.  Also: partial client navigations
must touch no more source than necessary (laziness), and stale node-ids
must stay valid (statelessness).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import (
    Comparison,
    Concatenate,
    Const,
    CreateElement,
    Difference,
    Distinct,
    GetDescendants,
    GroupBy,
    Join,
    OrderBy,
    Project,
    Rename,
    Select,
    Source,
    Union,
    Var,
    evaluate_bindings,
)
from repro.lazy import BindingsDocument, build_lazy_plan
from repro.navigation import (
    CountingDocument,
    MaterializedDocument,
    Navigation,
    materialize,
    run_navigation,
)
from repro.runtime import ExecutionContext
from repro.xtree import Tree, leaf

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

_LABELS = ["a", "b", "c"]
_DATA = ["1", "2", "3"]

_source_tree = st.recursive(
    st.sampled_from(_DATA).map(leaf),
    lambda kids: st.builds(
        Tree, st.sampled_from(_LABELS), st.lists(kids, max_size=3)),
    max_leaves=10,
).map(lambda t: Tree("src", [t]))

_paths = st.sampled_from([
    "a", "b", "_", "a.b", "_._", "a|b", "_*.b", "a*", "(a|b)._?",
    "b+", "a._*",
])


@st.composite
def _plans(draw):
    """A random well-formed plan over source 'src'."""
    plan = GetDescendants(Source("src", "R"), "R",
                          draw(_paths), "X")
    variables = ["R", "X"]
    fresh = iter("YZUVW")

    joined = [False]

    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(
            ["getdesc", "select", "groupby", "concat", "create",
             "orderby", "distinct", "project", "rename", "join",
             "union", "difference"]))
        if kind == "join" and not joined[0]:
            joined[0] = True
            right = Project(
                GetDescendants(Source("src", "RR"), "RR",
                               draw(_paths), "J"), ["J"])
            plan = Join(plan, right, Comparison(
                Var(draw(st.sampled_from(variables[1:]))), "=",
                Var("J")))
            variables.append("J")
            continue
        if kind in ("union", "difference"):
            keep = draw(st.sampled_from(variables[1:]))
            left = Project(plan, [keep])
            other = Project(
                GetDescendants(Source("src", "R"), "R",
                               draw(_paths), keep), [keep])
            plan = (Union(left, other) if kind == "union"
                    else Difference(left, other))
            variables = ["R", keep]
            continue
        if kind == "join":
            continue
        if kind == "getdesc":
            out = next(fresh)
            plan = GetDescendants(
                plan, draw(st.sampled_from(variables[1:])),
                draw(_paths), out)
            variables.append(out)
        elif kind == "select":
            var = draw(st.sampled_from(variables[1:]))
            plan = Select(plan, Comparison(
                Var(var), draw(st.sampled_from(["=", "!=", "<"])),
                Const(draw(st.sampled_from(_DATA)))))
        elif kind == "groupby":
            key = draw(st.sampled_from(variables[1:]))
            agg = draw(st.sampled_from(variables[1:]))
            out = next(fresh)
            plan = GroupBy(plan, [key], [(agg, out)])
            variables = [key, out]
        elif kind == "concat":
            chosen = draw(st.lists(
                st.sampled_from(variables[1:] if len(variables) > 1
                                else variables),
                min_size=1, max_size=2))
            out = next(fresh)
            plan = Concatenate(plan, chosen, out)
            variables.append(out)
        elif kind == "create":
            content = draw(st.sampled_from(variables[1:]))
            out = next(fresh)
            plan = CreateElement(plan, "made", content, out)
            variables.append(out)
        elif kind == "orderby":
            plan = OrderBy(plan, [draw(st.sampled_from(variables[1:]))])
        elif kind == "distinct":
            keep = draw(st.sampled_from(variables[1:]))
            plan = Distinct(Project(plan, [keep]))
            variables = [keep]
        elif kind == "project":
            keep = draw(st.lists(st.sampled_from(variables[1:]),
                                 min_size=1, max_size=2, unique=True))
            plan = Project(plan, keep)
            variables = list(keep)
        elif kind == "rename":
            old = draw(st.sampled_from(variables[1:]))
            new = next(fresh)
            plan = Rename(plan, {old: new})
            variables = [new if var == old else var for var in variables]
        if len(variables) < 2:
            variables = ["R"] + variables  # keep draw domains non-empty
    return plan


@settings(max_examples=150, deadline=None)
@given(tree=_source_tree, plan=_plans())
def test_lazy_equals_eager_with_cache(tree, plan):
    expected = evaluate_bindings(plan, {"src": tree}).to_tree()
    lazy = build_lazy_plan(plan, {"src": MaterializedDocument(tree)})
    assert materialize(BindingsDocument(lazy)) == expected


@settings(max_examples=75, deadline=None)
@given(tree=_source_tree, plan=_plans())
def test_lazy_equals_eager_without_cache(tree, plan):
    expected = evaluate_bindings(plan, {"src": tree}).to_tree()
    lazy = build_lazy_plan(plan, {"src": MaterializedDocument(tree)},
                           ExecutionContext.create(cache_enabled=False))
    assert materialize(BindingsDocument(lazy)) == expected


@settings(max_examples=75, deadline=None)
@given(tree=_source_tree, plan=_plans(), data=st.data())
def test_partial_navigation_agrees_with_materialized_answer(
        tree, plan, data):
    """Any client navigation on the virtual bs-tree returns exactly the
    labels the same navigation returns on the materialized answer."""
    commands = data.draw(st.lists(
        st.sampled_from(["d", "r", "f"]), max_size=12))
    nav = Navigation.parse(";".join(commands))

    eager_tree = evaluate_bindings(plan, {"src": tree}).to_tree()
    eager_doc = MaterializedDocument(eager_tree)
    expected = run_navigation(eager_doc, nav)

    lazy = build_lazy_plan(plan, {"src": MaterializedDocument(tree)})
    actual = run_navigation(BindingsDocument(lazy), nav)

    assert actual.labels == expected.labels
    # None-ness of pointers must coincide step by step.
    assert [p is None for p in actual.pointers] \
        == [p is None for p in expected.pointers]


@settings(max_examples=50, deadline=None)
@given(tree=_source_tree, plan=_plans())
def test_stale_node_ids_remain_valid(tree, plan):
    """Navigate everything, then re-issue navigation from the first
    binding id: results must be identical (ids encode associations)."""
    lazy = build_lazy_plan(plan, {"src": MaterializedDocument(tree)})
    first = lazy.first_binding()
    if first is None:
        return
    chain1 = []
    b = first
    while b is not None and len(chain1) < 20:
        chain1.append(b)
        b = lazy.next_binding(b)
    # Re-walk from the stale first id.
    chain2 = []
    b = first
    while b is not None and len(chain2) < 20:
        chain2.append(b)
        b = lazy.next_binding(b)
    assert chain1 == chain2


@settings(max_examples=50, deadline=None)
@given(tree=_source_tree)
def test_root_handle_is_free(tree):
    """Obtaining the bs root and first-variable structure must not
    navigate the source at all until values are touched."""
    counter = CountingDocument(MaterializedDocument(tree))
    plan = GetDescendants(Source("src", "R"), "R", "a.b", "X")
    lazy = build_lazy_plan(plan, {"src": counter})
    doc = BindingsDocument(lazy)
    root = doc.root()
    assert counter.total == 0
    assert doc.fetch(root) == "bs"
    assert counter.total == 0


class TestLaziness:
    """Quantified laziness on a structured example."""

    def _setup(self, n=50):
        kids = [Tree("a", [Tree("b", [leaf(str(i))])])
                for i in range(n)]
        tree = Tree("src", [Tree("r", kids)])
        counter = CountingDocument(MaterializedDocument(tree))
        plan = GetDescendants(
            GetDescendants(Source("src", "R"), "R", "r.a.b", "X"),
            "X", "_", "V")
        lazy = build_lazy_plan(plan, {"src": counter})
        return lazy, counter, n

    def test_first_binding_touches_prefix_only(self):
        lazy, counter, n = self._setup()
        lazy.first_binding()
        # Finding the first match requires a constant-size prefix.
        assert counter.total < 15

    def test_cost_scales_with_bindings_consumed(self):
        lazy, counter, n = self._setup()
        b = lazy.first_binding()
        cost_1 = counter.total
        for _ in range(9):
            b = lazy.next_binding(b)
        cost_10 = counter.total
        assert cost_10 < cost_1 * 30
        # Consuming 10 of 50 bindings must not have scanned everything:
        lazy2, counter2, _ = self._setup()
        materialize(BindingsDocument(lazy2))
        assert cost_10 < counter2.total / 2


@settings(max_examples=75, deadline=None)
@given(tree=_source_tree, plan=_plans())
def test_lazy_equals_eager_with_sigma(tree, plan):
    """The select(sigma) optimization must not change results."""
    expected = evaluate_bindings(plan, {"src": tree}).to_tree()
    lazy = build_lazy_plan(plan, {"src": MaterializedDocument(tree)},
                           ExecutionContext.create(use_sigma=True))
    assert materialize(BindingsDocument(lazy)) == expected


class TestSigmaBoundedness:
    """Example 1's remark: with select(sigma) in NC, the label-filter
    view becomes bounded browsable."""

    def _cost_of_first(self, n, use_sigma):
        kids = [Tree("miss", [leaf(str(i))]) for i in range(n - 1)]
        kids.append(Tree("hit", [leaf("x")]))
        tree = Tree("src", [Tree("r", kids)])
        counter = CountingDocument(MaterializedDocument(tree))
        plan = GetDescendants(
            GetDescendants(Source("src", "R"), "R", "r", "L"),
            "L", "hit", "X")
        lazy = build_lazy_plan(plan, {"src": counter},
                               ExecutionContext.create(use_sigma=use_sigma))
        lazy.first_binding()
        return counter.total

    def test_sigma_makes_late_hit_constant_cost(self):
        without_small = self._cost_of_first(8, use_sigma=False)
        without_large = self._cost_of_first(256, use_sigma=False)
        with_small = self._cost_of_first(8, use_sigma=True)
        with_large = self._cost_of_first(256, use_sigma=True)
        # Scanning grows with the source; sigma stays flat.
        assert without_large > without_small * 8
        assert with_large == with_small

    def test_sigma_cost_is_small_constant(self):
        assert self._cost_of_first(256, use_sigma=True) < 12


@settings(max_examples=60, deadline=None)
@given(tree=_source_tree, plan=_plans(),
       cache=st.booleans(), sigma=st.booleans())
def test_lazy_equals_eager_under_all_flag_combinations(
        tree, plan, cache, sigma):
    """cache x sigma: no configuration may change results."""
    expected = evaluate_bindings(plan, {"src": tree}).to_tree()
    lazy = build_lazy_plan(
        plan, {"src": MaterializedDocument(tree)},
        ExecutionContext.create(cache_enabled=cache, use_sigma=sigma))
    assert materialize(BindingsDocument(lazy)) == expected


@settings(max_examples=40, deadline=None)
@given(tree=_source_tree, plan=_plans(), data=st.data())
def test_interleaved_navigation_from_multiple_pointers(
        tree, plan, data):
    """Definition 1's key difference from cursors: navigation resumes
    from arbitrary previously issued pointers, interleaved."""
    lazy = build_lazy_plan(plan, {"src": MaterializedDocument(tree)})
    doc = BindingsDocument(lazy)
    eager_doc = MaterializedDocument(
        evaluate_bindings(plan, {"src": tree}).to_tree())

    pointers = [doc.root()]
    reference = [eager_doc.root()]
    for _ in range(data.draw(st.integers(0, 15))):
        index = data.draw(st.integers(0, len(pointers) - 1))
        command = data.draw(st.sampled_from(["d", "r", "f"]))
        if pointers[index] is None:
            continue
        if command == "f":
            assert doc.fetch(pointers[index]) == \
                eager_doc.fetch(reference[index])
            continue
        move = doc.down if command == "d" else doc.right
        ref_move = (eager_doc.down if command == "d"
                    else eager_doc.right)
        new_pointer = move(pointers[index])
        new_reference = ref_move(reference[index])
        assert (new_pointer is None) == (new_reference is None)
        if new_pointer is not None:
            pointers.append(new_pointer)
            reference.append(new_reference)
