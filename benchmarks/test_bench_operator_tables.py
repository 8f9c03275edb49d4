"""E6 -- Appendix A, Figures 9 & 10: per-command behaviour of the
createElement and groupBy lazy mediators.

Paper artifacts: the command-mapping tables for
createElement_{med_homes, HLSs -> MHs} (Figure 9) and
groupBy_{H}, S -> LSs (Figure 10), plus the Example 8 instance.

Reproduction: drive each mediator command-by-command over the paper's
instances, metering the source navigations each command costs, and
check the table's qualitative rows: constant labels fetch for free,
``d`` on a created element goes straight into the content value,
group-member ``r`` scans exactly to the next binding with the same
group-by list.
"""

import pytest

from repro.algebra import (
    Comparison,
    GetDescendants,
    GroupBy,
    Source,
    Var,
)
from repro.bench import format_table
from repro.lazy import (
    LazyCreateElement,
    LazyGroupBy,
    build_lazy_plan,
)
from repro.navigation import CountingDocument, MaterializedDocument
from repro.xtree import Tree, elem

# The Example 8 input instance, encoded as a source the plan below
# turns into exactly the paper's binding list.
EXAMPLE8_DOC = Tree("bsrc", [Tree("pairs", [
    elem("p", elem("h", "home1"), elem("s", "school1")),
    elem("p", elem("h", "home1"), elem("s", "school2")),
    elem("p", elem("h", "home2"), elem("s", "school3")),
    elem("p", elem("h", "home1"), elem("s", "school4")),
    elem("p", elem("h", "home3"), elem("s", "school5")),
])])


def _group_by_setup():
    counter = CountingDocument(MaterializedDocument(EXAMPLE8_DOC))
    base = GetDescendants(Source("bsrc", "root"), "root", "pairs.p",
                          "P")
    bindings = GetDescendants(GetDescendants(base, "P", "h", "H"),
                              "P", "s", "S")
    inner = build_lazy_plan(bindings, {"bsrc": counter})
    return LazyGroupBy(inner, ["H"], [("S", "LSs")]), counter


class TestGroupByFig10:
    def test_example8_output(self):
        op, _ = _group_by_setup()
        from repro.lazy import materialize_value
        groups = []
        binding = op.first_binding()
        while binding is not None:
            lss = op.attribute(binding, "LSs")
            groups.append([c.text() for c in
                           materialize_value(lss).children])
            binding = op.next_binding(binding)
        assert groups == [["school1", "school2", "school4"],
                          ["school3"], ["school5"]]

    def test_next_group_scans_past_seen_keys(self):
        """Figure 10's next_gb: from the first output binding, the
        scan skips input bindings whose key is already in G_prev."""
        op, counter = _group_by_setup()
        first = op.first_binding()
        counter.reset()
        second = op.next_binding(first)
        # Skipped one home1 binding, landed on home2: a short scan,
        # not a full-input pass.
        scan_cost = counter.total
        assert second is not None
        assert 0 < scan_cost < 60

    def test_member_navigation_is_fig10_next(self):
        """r from school2 to school4 scans bindings 3..4 only."""
        op, counter = _group_by_setup()
        binding = op.first_binding()
        lss = op.attribute(binding, "LSs")
        first_member = op.v_down(lss)
        second_member = op.v_right(first_member)
        counter.reset()
        third_member = op.v_right(second_member)  # school2 -> school4
        cost = counter.total
        from repro.lazy import materialize_value
        assert materialize_value(third_member).text() == "school4"
        assert cost < 60
        # And past the last member the list ends.
        assert op.v_right(third_member) is None

    def test_grouped_list_label_is_free(self):
        op, counter = _group_by_setup()
        binding = op.first_binding()
        lss = op.attribute(binding, "LSs")
        counter.reset()
        assert op.v_fetch(lss) == "list"
        assert counter.total == 0


def _create_element_setup():
    counter = CountingDocument(MaterializedDocument(EXAMPLE8_DOC))
    base = GetDescendants(Source("bsrc", "root"), "root", "pairs.p",
                          "P")
    inner = build_lazy_plan(base, {"bsrc": counter})
    return LazyCreateElement(inner, "med_home", "P", "M"), counter


class TestCreateElementFig9:
    def test_constant_label_fetch_is_free(self):
        """Figure 9, 7th mapping: f on the created node returns the
        constant label with zero source navigations."""
        op, counter = _create_element_setup()
        binding = op.first_binding()
        vid = op.attribute(binding, "M")
        counter.reset()
        assert op.v_fetch(vid) == "med_home"
        assert counter.total == 0

    def test_down_goes_into_content_children(self):
        """Figure 9, 6th mapping: d(<v,p_b>) = <id, d(p_b.HLSs)>."""
        op, counter = _create_element_setup()
        binding = op.first_binding()
        vid = op.attribute(binding, "M")
        child = op.v_down(vid)
        # the content value's child, navigated at its owner
        assert child[0].v_fetch(child) == "h"

    def test_created_value_is_a_root(self):
        op, _ = _create_element_setup()
        binding = op.first_binding()
        vid = op.attribute(binding, "M")
        assert op.v_right(vid) is None

    def test_binding_level_passes_through(self):
        """Figure 9, rows 1-2: d/r at the binding level mirror the
        input 1:1."""
        op, counter = _create_element_setup()
        binding = op.first_binding()
        count = 1
        while (binding := op.next_binding(binding)) is not None:
            count += 1
        assert count == 5  # one output binding per input binding


def test_command_cost_table(write_result, benchmark):
    """The E6 deliverable: measured per-command source-navigation
    costs for both operators on the Example 8 instance."""
    rows = []

    op, counter = _create_element_setup()
    binding = op.first_binding()
    start = counter.total
    rows.append(["createElement", "first binding (d on bs)", start])
    vid = op.attribute(binding, "M")
    counter.reset()
    op.v_fetch(vid)
    rows.append(["createElement", "f on created node (label)",
                 counter.total])
    counter.reset()
    op.v_down(vid)
    rows.append(["createElement", "d into created node",
                 counter.total])
    counter.reset()
    op.next_binding(binding)
    rows.append(["createElement", "r to next binding", counter.total])

    op, counter = _group_by_setup()
    binding = op.first_binding()
    rows.append(["groupBy", "first binding (d on bs)", counter.total])
    counter.reset()
    second = op.next_binding(binding)
    rows.append(["groupBy", "r to next group (next_gb)",
                 counter.total])
    lss = op.attribute(binding, "LSs")
    counter.reset()
    member = op.v_down(lss)
    rows.append(["groupBy", "d into grouped list", counter.total])
    counter.reset()
    op.v_right(member)
    rows.append(["groupBy", "r to next member (next)", counter.total])

    table = format_table(
        ["operator", "command", "source navigations"], rows)
    write_result("E6_operator_tables", table)

    def full_walk():
        op, _ = _group_by_setup()
        from repro.lazy import BindingsDocument
        from repro.navigation import materialize
        return materialize(BindingsDocument(op))

    benchmark(full_walk)


class TestOperatorCostScaling:
    """E6b: per-operator navigation-cost scaling.

    For each lazy operator, the source navigations charged by one
    binding-level step (averaged over a full walk) as the input grows
    -- the per-operator footprint behind the Definition 2 classes.
    """

    SIZES = (20, 40, 80)

    @staticmethod
    def _walk_cost(plan_builder, n):
        from repro.lazy import BindingsDocument, build_lazy_plan
        from repro.navigation import materialize
        plan, trees = plan_builder(n)
        docs = {u: CountingDocument(MaterializedDocument(t))
                for u, t in trees.items()}
        op = build_lazy_plan(plan, docs)
        binding = op.first_binding()
        steps = 1
        while binding is not None:
            binding = op.next_binding(binding)
            steps += 1
        total = sum(d.total for d in docs.values())
        return total / max(1, steps)

    @staticmethod
    def _flat_tree(n):
        return Tree("src", [Tree("r", [
            elem("p", elem("k", str(i % 4)), elem("v", str(i)))
            for i in range(n)])])

    @classmethod
    def _cases(cls):
        from repro.algebra import (
            Comparison,
            Concatenate,
            Const,
            CreateElement,
            Distinct,
            GroupBy,
            Join,
            OrderBy,
            Project,
            Select,
        )

        def base(n):
            return GetDescendants(Source("src", "R"), "R", "r.p", "P")

        def with_kv(n):
            return GetDescendants(
                GetDescendants(base(n), "P", "k", "K"), "P", "v", "V")

        def trees(n):
            return {"src": cls._flat_tree(n)}

        return [
            ("getDescendants", lambda n: (base(n), trees(n))),
            ("select (1/4 selective)", lambda n: (
                Select(with_kv(n),
                       Comparison(Var("K"), "=", Const("1"))),
                trees(n))),
            ("groupBy", lambda n: (
                GroupBy(with_kv(n), ["K"], [("V", "Vs")]), trees(n))),
            ("concatenate+createElement", lambda n: (
                CreateElement(
                    Concatenate(with_kv(n), ["K", "V"], "C"),
                    "made", "C", "E"),
                trees(n))),
            ("distinct", lambda n: (
                Distinct(Project(with_kv(n), ["K"])), trees(n))),
            ("orderBy", lambda n: (
                OrderBy(with_kv(n), ["V"]), trees(n))),
        ]

    def test_scaling_table(self, write_result):
        rows = []
        for name, builder in self._cases():
            costs = ["%.1f" % self._walk_cost(builder, n)
                     for n in self.SIZES]
            rows.append([name] + costs)
        table = format_table(
            ["operator (avg source navs per output step)"]
            + ["n=%d" % n for n in self.SIZES],
            rows)
        write_result("E6_cost_scaling", table)

    def test_per_step_cost_of_getdescendants_is_flat(self):
        small = self._walk_cost(self._cases()[0][1], 20)
        large = self._walk_cost(self._cases()[0][1], 80)
        assert large < small * 2  # amortized O(1) per step

    @staticmethod
    def _first_step_cost(plan_builder, n):
        from repro.lazy import build_lazy_plan
        plan, trees = plan_builder(n)
        docs = {u: CountingDocument(MaterializedDocument(t))
                for u, t in trees.items()}
        op = build_lazy_plan(plan, docs)
        op.first_binding()
        return sum(d.total for d in docs.values())

    def test_orderby_first_binding_cost_grows(self):
        """Unbrowsability shows in time-to-first-result: orderBy's
        first binding forces the full scan (per-step cost then
        amortizes to a constant, which the table shows)."""
        builder = dict((name, b) for name, b in self._cases())["orderBy"]
        small = self._first_step_cost(builder, 20)
        large = self._first_step_cost(builder, 80)
        assert large > small * 2

    def test_getdescendants_first_binding_cost_flat(self):
        builder = self._cases()[0][1]
        small = self._first_step_cost(builder, 20)
        large = self._first_step_cost(builder, 80)
        assert large <= small
