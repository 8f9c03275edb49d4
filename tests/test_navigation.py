"""Unit + property tests for the DOM-VXD navigation model."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.navigation import (
    DOWN,
    FETCH,
    RIGHT,
    Browsability,
    CountingDocument,
    MaterializedDocument,
    NavStep,
    NavigableDocument,
    Navigation,
    Select,
    child_labels,
    classify,
    explored_part,
    materialize,
    run_navigation,
)
from repro.xtree import Tree, elem, leaf, tree_size


@pytest.fixture
def doc():
    tree = elem(
        "homes",
        elem("home", elem("addr", "La Jolla"), elem("zip", "91220")),
        elem("home", elem("zip", "91223")),
        elem("note", "sold"),
    )
    return MaterializedDocument(tree)


class TestMaterializedNavigation:
    def test_root_fetch(self, doc):
        assert doc.fetch(doc.root()) == "homes"

    def test_down_right_chain(self, doc):
        first = doc.down(doc.root())
        second = doc.right(first)
        third = doc.right(second)
        assert doc.fetch(first) == "home"
        assert doc.fetch(second) == "home"
        assert doc.fetch(third) == "note"
        assert doc.right(third) is None

    def test_down_on_leaf_is_none(self, doc):
        leaf_ptr = doc.down(doc.down(doc.down(doc.root())))
        assert doc.fetch(leaf_ptr) == "La Jolla"
        assert doc.down(leaf_ptr) is None

    def test_root_has_no_sibling(self, doc):
        assert doc.right(doc.root()) is None

    def test_select_finds_matching_sibling(self, doc):
        first = doc.down(doc.root())
        note = doc.select(first, "note")
        assert doc.fetch(note) == "note"

    def test_select_skips_nonmatching(self, doc):
        first = doc.down(doc.root())
        # 'note' is 2 siblings away; select must skip the second home.
        assert doc.fetch(doc.select(first, "note")) == "note"

    def test_select_exhausted_returns_none(self, doc):
        first = doc.down(doc.root())
        assert doc.select(first, "nosuch") is None

    def test_select_with_callable_predicate(self, doc):
        first = doc.down(doc.root())
        found = doc.select(first, lambda l: l.startswith("no"))
        assert doc.fetch(found) == "note"


class TestNavigationSequences:
    def test_parse_and_str_round_trip(self):
        nav = Navigation.parse("d;f;r;f;d@1;select(note)")
        assert str(nav) == "d;f;r;f;d@1;select(note)"

    def test_linear_navigation(self, doc):
        nav = Navigation.linear([DOWN, FETCH, RIGHT, FETCH])
        result = run_navigation(doc, nav)
        assert result.labels == ["home", "home"]

    def test_resume_from_earlier_pointer(self, doc):
        # d yields home#1 (step 1); r yields home#2 (step 2);
        # then continue from step 1 again with d.
        nav = Navigation.parse("d;r;d@1;f")
        result = run_navigation(doc, nav)
        assert result.labels == ["addr"]

    def test_navigation_past_bottom_yields_none(self, doc):
        nav = Navigation.parse("d;r;r;r;r")  # runs off the sibling list
        result = run_navigation(doc, nav)
        assert result.pointers[-1] is None

    def test_select_step(self, doc):
        nav = Navigation([NavStep(DOWN), NavStep(Select("note")),
                          NavStep(FETCH)])
        assert run_navigation(doc, nav).labels == ["note"]

    def test_unknown_command_text_raises(self):
        with pytest.raises(ValueError):
            Navigation.parse("q")


class TestMaterialize:
    def test_round_trip(self, doc):
        assert materialize(doc) == doc.tree

    def test_child_labels(self, doc):
        assert child_labels(doc, doc.root()) == ["home", "home", "note"]

    def test_max_nodes_guard(self, doc):
        with pytest.raises(RuntimeError):
            materialize(doc, max_nodes=2)


class TestCounting:
    def test_counts_commands(self, doc):
        counted = CountingDocument(doc)
        run_navigation(counted, Navigation.parse("d;f;r;f"))
        counters = counted.counters
        assert counters.down == 1
        assert counters.right == 1
        assert counters.fetch == 2
        assert counters.total == 4

    def test_root_is_free(self, doc):
        counted = CountingDocument(doc)
        counted.root()
        assert counted.total == 0

    def test_reset_and_snapshot(self, doc):
        counted = CountingDocument(doc)
        run_navigation(counted, Navigation.parse("d;f"))
        before = dataclasses.replace(counted.counters)
        run_navigation(counted, Navigation.parse("d;f;f"))
        delta = counted.counters - before
        assert delta.total == 3
        counted.reset()
        assert counted.total == 0

    def test_trace_logging(self, doc):
        counted = CountingDocument(doc, log=True)
        run_navigation(counted, Navigation.parse("d;f"))
        assert [cmd for cmd, _ in counted.trace] == ["d", "f"]


class TestExploredPart:
    def test_explored_part_of_prefix_navigation(self):
        tree = elem("r", elem("a", "1"), elem("b", "2"), elem("c", "3"))
        ep = explored_part(tree, Navigation.parse("d;f"))
        # Visited: root + first child; fetched: first child only.
        assert ep.node_count == 2
        rendered = ep.to_tree(tree)
        assert rendered.sexpr() == "?[a]"

    def test_unvisited_siblings_absent(self):
        tree = elem("r", elem("a"), elem("b"), elem("c"))
        ep = explored_part(tree, Navigation.parse("d;r"))
        rendered = ep.to_tree(tree)
        assert rendered.sexpr() == "?[?, ?]"

    def test_full_exploration_recovers_tree_shape(self):
        tree = elem("r", elem("a", "1"), elem("b"))
        nav = Navigation.parse("f;d;f;d;f;r@2;f")
        ep = explored_part(tree, nav)
        assert ep.to_tree(tree) == tree

    def test_explored_nodes_never_exceed_tree(self):
        tree = elem("r", elem("a"), elem("b"))
        ep = explored_part(tree, Navigation.parse("d;r;r;r"))
        assert ep.node_count <= tree_size(tree)


# ----------------------------------------------------------------------
# Property tests
# ----------------------------------------------------------------------

_tree_strategy = st.recursive(
    st.sampled_from(list("abcxyz")).map(leaf),
    lambda children: st.builds(
        Tree,
        st.sampled_from(["r", "s", "t"]),
        st.lists(children, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(tree=_tree_strategy)
def test_materialize_inverts_materialized_document(tree):
    assert materialize(MaterializedDocument(tree)) == tree


@settings(max_examples=150, deadline=None)
@given(tree=_tree_strategy, data=st.data())
def test_explored_part_is_subtree(tree, data):
    commands = data.draw(
        st.lists(st.sampled_from(["d", "r", "f"]), max_size=10))
    nav = Navigation.parse(";".join(commands))
    ep = explored_part(tree, nav)
    assert ep.fetched <= ep.visited
    assert ep.node_count <= tree_size(tree)
    # Navigation length bounds the number of newly visited nodes.
    assert ep.node_count <= len(nav) + 1


class TestBrowsabilityClassifier:
    """Example 1 of the paper, reproduced with hand-built views."""

    @staticmethod
    def _concat_view(sources):
        """q_conc: decapitate both roots, concatenate first-level lists.

        Implemented directly against the navigation interface: a tiny
        hand-written lazy mediator used to validate the classifier
        before the real algebra exists.
        """

        class Concat(NavigableDocument):
            def root(self):
                return ("root",)

            def down(self, p):
                if p == ("root",):
                    first = sources[0].down(sources[0].root())
                    if first is not None:
                        return (0, first)
                    second = sources[1].down(sources[1].root())
                    return (1, second) if second is not None else None
                return None  # children are opaque here

            def right(self, p):
                if p == ("root",):
                    return None
                which, inner = p
                nxt = sources[which].right(inner)
                if nxt is not None:
                    return (which, nxt)
                if which == 0:
                    second = sources[1].down(sources[1].root())
                    return (1, second) if second is not None else None
                return None

            def fetch(self, p):
                if p == ("root",):
                    return "concat"
                which, inner = p
                return sources[which].fetch(inner)

        return Concat()

    @staticmethod
    def _filter_view(sources):
        """q_sigma: first-level children whose label is 'hit'."""

        class Filter(NavigableDocument):
            def root(self):
                return ("root",)

            def _scan(self, inner):
                src = sources[0]
                while inner is not None:
                    if src.fetch(inner) == "hit":
                        return ("kid", inner)
                    inner = src.right(inner)
                return None

            def down(self, p):
                if p == ("root",):
                    src = sources[0]
                    return self._scan(src.down(src.root()))
                return None

            def right(self, p):
                if p == ("root",):
                    return None
                _, inner = p
                return self._scan(sources[0].right(inner))

            def fetch(self, p):
                if p == ("root",):
                    return "filtered"
                return sources[0].fetch(p[1])

        return Filter()

    @staticmethod
    def _sort_view(sources):
        """q_sort: children reordered by label -- must read everything."""

        class Sort(NavigableDocument):
            def __init__(self):
                self._materialized = None

            def _force(self):
                if self._materialized is None:
                    whole = materialize(sources[0])
                    ordered = sorted(whole.children, key=lambda c: c.label)
                    self._materialized = MaterializedDocument(
                        Tree("sorted", ordered))
                return self._materialized

            def root(self):
                return ()

            def _pointer(self, p):
                # the view's root is the sorted document's root
                document = self._force()
                return document, document.root() if p == () else p

            def down(self, p):
                document, pointer = self._pointer(p)
                return document.down(pointer)

            def right(self, p):
                document, pointer = self._pointer(p)
                return document.right(pointer)

            def fetch(self, p):
                if p == ():
                    return "sorted"
                return self._force().fetch(p)

        return Sort()

    @staticmethod
    def _early(n):
        kids = [elem("hit", "0")] + [elem("miss", str(i))
                                     for i in range(n - 1)]
        return [Tree("src", kids), Tree("src", kids)]

    @staticmethod
    def _late(n):
        kids = [elem("miss", str(i)) for i in range(n - 1)]
        kids.append(elem("hit", "0"))
        return [Tree("src", kids), Tree("src", kids)]

    def test_concat_is_bounded(self):
        report = classify(self._concat_view, self._early, self._late,
                          Navigation.parse("d;f;r;f"))
        assert report.classification is Browsability.BOUNDED

    def test_filter_is_browsable(self):
        report = classify(self._filter_view, self._early, self._late,
                          Navigation.parse("d;f"))
        assert report.classification is Browsability.BROWSABLE
        # Early placement answers in O(1); late placement scans.
        assert report.late.costs[-1] > report.early.costs[-1]

    def test_sort_is_unbrowsable(self):
        report = classify(self._sort_view, self._early, self._late,
                          Navigation.parse("d;f"))
        assert report.classification is Browsability.UNBROWSABLE


class TestSmallApiCorners:
    def test_navresult_final_pointer(self, doc):
        result = run_navigation(doc, Navigation.parse("d;r;f"))
        assert result.final is not None
        assert doc.fetch(result.final) == "home"

    def test_navresult_final_none_when_no_pointers(self):
        from repro.navigation import NavResult
        assert NavResult(pointers=[None, None]).final is None

    def test_navigation_then_builds_incrementally(self, doc):
        nav = Navigation().then(DOWN).then(FETCH)
        assert str(nav) == "d;f"
        assert run_navigation(doc, nav).labels == ["home"]

    def test_navstep_str_with_source(self):
        step = NavStep(DOWN, 3)
        assert str(step) == "d@3"

    def test_select_str_forms(self):
        assert str(Select("note")) == "select(note)"

        def labeled(label):
            return label == "x"

        assert "labeled" in str(Select(labeled))

    def test_counters_str(self, doc):
        counted = CountingDocument(doc)
        run_navigation(counted, Navigation.parse("d;f"))
        text = str(counted.counters)
        assert "d=1" in text and "total=2" in text

    def test_explored_to_tree_none_when_root_unvisited(self):
        from repro.navigation import ExploredPart
        from repro.xtree import elem
        assert ExploredPart().to_tree(elem("r")) is None
