"""Tests for the XMAS front-end: parser, translation, composition."""

import pytest

from repro.algebra import (
    Concatenate,
    CreateElement,
    GetDescendants,
    GroupBy,
    Join,
    Select,
    Source,
    TupleDestroy,
    evaluate,
    evaluate_bindings,
    walk_plan,
)
from repro.algebra.operators import Project, plan_depth
from repro.xmas import (
    ComparisonCondition,
    ElementTemplate,
    LiteralContent,
    PathCondition,
    VarUse,
    XMASSyntaxError,
    XMASTranslationError,
    inline_views,
    parse_xmas,
    translate,
)
from repro.xmas.translate import MAX_PLAN_DEPTH
from repro import EngineConfig, MediatorError, MIXMediator
from repro.navigation import MaterializedDocument
from repro.xtree import Tree, elem, to_xml
from repro.xtree.path import MAX_CONDITIONS, MAX_NESTING

from .fixtures import expected_fig4_answer, fig4_sources, \
    long_where_clause, stacked_views

FIG3_QUERY = """
CONSTRUCT <answer>
  <med_home> $H $S {$S} </med_home> {$H}   % one med_home per $H
</answer> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1
  AND schoolsSrc schools.school $S AND $S zip._ $V2
  AND $V1 = $V2
"""


class TestParser:
    def test_fig3_structure(self):
        query = parse_xmas(FIG3_QUERY)
        assert query.head.tag == "answer"
        assert query.head.group == []
        (med_home,) = query.head.children
        assert isinstance(med_home, ElementTemplate)
        assert med_home.group == ["H"]
        h_use, s_use = med_home.children
        assert h_use == VarUse("H", None)
        assert s_use == VarUse("S", ["S"])
        assert len(query.conditions) == 5
        assert query.source_names() == ["homesSrc", "schoolsSrc"]

    def test_comments_stripped(self):
        query = parse_xmas(
            "CONSTRUCT <a> $X {$X} </a> {} % comment\n"
            "WHERE src x $X  % another\n")
        assert query.head.tag == "a"

    def test_path_condition_forms(self):
        query = parse_xmas(
            "CONSTRUCT <a> $Y {$Y} </a> {} "
            "WHERE src homes.home $X AND $X zip._ $Y")
        first, second = query.conditions
        assert isinstance(first, PathCondition) and first.base == "src"
        assert second.base == ("var", "X")
        assert str(second.path) == "zip._"

    def test_comparison_forms(self):
        query = parse_xmas(
            "CONSTRUCT <a> $X {$X} </a> {} "
            "WHERE src p $X AND $X = $Y AND $X < 100 AND $X != 'abc'")
        comps = [c for c in query.conditions
                 if isinstance(c, ComparisonCondition)]
        assert comps[0].right == ("var", "Y")
        assert comps[1].right == "100"
        assert comps[2].right == "abc"

    def test_literal_content(self):
        query = parse_xmas(
            'CONSTRUCT <a> "hello" $X {$X} </a> {} WHERE src p $X')
        assert query.head.children[0] == LiteralContent("hello")

    def test_keywords_case_insensitive(self):
        query = parse_xmas(
            "construct <a> $X {$X} </a> {} where src p $X and $X = 1")
        assert len(query.conditions) == 2

    def test_wildcard_and_star_paths(self):
        query = parse_xmas(
            "CONSTRUCT <a> $X {$X} </a> {} WHERE src _*.book $X")
        assert str(query.conditions[0].path) == "_*.book"

    @pytest.mark.parametrize("bad", [
        "",
        "WHERE src p $X",
        "CONSTRUCT <a> $X </a> WHERE src p $X",      # missing marker
        "CONSTRUCT <a> $X {$X} </b> {} WHERE src p $X",  # mismatch
        "CONSTRUCT <a> $X {$X} </a> {} WHERE",
        "CONSTRUCT <a> $X {$X} </a> {} WHERE src p $X garbage end",
        "CONSTRUCT <a> $X {$X} </a> {} WHERE src ..bad $X",
    ])
    def test_syntax_errors(self, bad):
        with pytest.raises(XMASSyntaxError):
            parse_xmas(bad)


def _nested(depth):
    """A query whose answer nests ``depth`` constructed elements."""
    return ("CONSTRUCT " + "<a> " * depth + "$H {$H} "
            + "</a> " * (depth - 1) + "</a> {} "
            "WHERE homesSrc homes.home $H")


class TestNestingLimit:
    """Every phase after the parser recurses over a query's nesting,
    so the parser refuses what would run out of stack later: a bad
    query, not an internal error (1 000 nested elements, 7 KB of text,
    used to raise RecursionError)."""

    @pytest.mark.parametrize("text", [
        _nested(MAX_NESTING + 1),
        _nested(1000),
        "CONSTRUCT <a> $H {$H} </a> {} WHERE "
        + "<x> " * MAX_NESTING + "$H:<y></y>" + "</x> " * MAX_NESTING
        + "IN homesSrc",
        "CONSTRUCT <a> $H {$H} </a> {} WHERE homesSrc "
        + "(" * 1000 + "homes" + ")" * 1000 + ".home $H",
        "CONSTRUCT <a> $H {$H} </a> {} WHERE homesSrc homes.home"
        + "?" * (MAX_NESTING + 1) + " $H",
    ], ids=["elements", "elements-1000", "pattern", "parentheses",
            "postfix"])
    def test_deeper_than_the_limit_is_a_syntax_error(self, text):
        with pytest.raises(XMASSyntaxError, match="%d" % MAX_NESTING):
            parse_xmas(text)

    @pytest.mark.parametrize("text", [
        _nested(MAX_NESTING),
        "CONSTRUCT <a> $H {$H} </a> {} WHERE homesSrc "
        + "(" * (MAX_NESTING - 1) + "homes" + ")" * (MAX_NESTING - 1)
        + ".home? $H",
    ], ids=["elements", "path"])
    def test_at_the_limit_prepares_and_navigates_to_the_end(self, text):
        mediator = MIXMediator(EngineConfig())
        for name, tree in fig4_sources().items():
            mediator.register_source(name, MaterializedDocument(tree))
        answer = mediator.prepare(text).root.to_tree()
        assert answer == mediator.query_eager(text)
        assert "<home>" in to_xml(answer)


class TestConditionLimit:
    """Translation, rewriting and navigation recurse over a WHERE
    clause's conditions too: 400 conditions used to raise
    RecursionError in ``prepare``, 300 under ``observe_operators``."""

    @pytest.mark.parametrize("count", [MAX_CONDITIONS + 1, 400])
    def test_more_than_the_limit_is_a_syntax_error(self, count):
        with pytest.raises(XMASSyntaxError,
                           match="more than %d" % MAX_CONDITIONS):
            parse_xmas(long_where_clause(count))

    def test_a_pattern_counts_as_its_path_conditions(self):
        pattern = "<home> %s</home>" % "".join(
            "$A%d:<addr></addr> " % index
            for index in range(MAX_CONDITIONS))
        with pytest.raises(XMASSyntaxError,
                           match="more than %d" % MAX_CONDITIONS):
            parse_xmas("CONSTRUCT <r> $H {$H} </r> {} WHERE "
                       "$H:%s IN homesSrc" % pattern)

    def test_at_the_limit_prepares_and_reaches_its_first_result(self):
        mediator = MIXMediator(EngineConfig(observe_operators=True))
        for name, tree in fig4_sources().items():
            mediator.register_source(name, MaterializedDocument(tree))
        root = mediator.prepare(
            long_where_clause(MAX_CONDITIONS)).root
        assert root.first_child().tag == "home"

    def _observed_mediator(self):
        mediator = MIXMediator(EngineConfig(observe_operators=True))
        for name, tree in fig4_sources().items():
            mediator.register_source(name, MaterializedDocument(tree))
        return mediator

    def test_a_composed_plan_past_the_limit_is_a_mediator_error(self):
        """Views inlined into a query join their conditions: 100 per
        text, three texts deep, used to prepare and then raise
        RecursionError at the first navigation."""
        mediator = self._observed_mediator()
        query = stacked_views(mediator, 100)
        with pytest.raises(MediatorError,
                           match="holds 300 conditions, more than %d"
                           % MAX_CONDITIONS):
            mediator.prepare(query)

    def test_a_composed_plan_at_the_limit_reaches_its_first_result(self):
        mediator = self._observed_mediator()
        query = stacked_views(mediator, MAX_CONDITIONS // 3)
        root = mediator.prepare(query).root
        assert root.first_child().tag == "home"
        # one condition more than the limit, on the query's own text
        extra = MAX_CONDITIONS + 1 - 3 * (MAX_CONDITIONS // 3)
        with pytest.raises(MediatorError, match="holds %d conditions"
                           % (MAX_CONDITIONS + 1)):
            mediator.prepare(query + "".join(
                " AND $H addr._ $B%d" % index for index in range(extra)))


def _project_chain(levels):
    """A plan over homesSrc: one getDescendants under ``levels``
    stacked projections, closed by tupleDestroy -- the ``homes``
    element."""
    plan = GetDescendants(Source("homesSrc", "R"), "R", "homes", "H")
    for _ in range(levels):
        plan = Project(plan, ["H"])
    return TupleDestroy(plan, "H")


def _deepest_admitted_text():
    """MAX_CONDITIONS conditions chained over one source, elements
    nested MAX_NESTING deep with a literal and a group key each, and
    one ORDER BY key."""
    where = "homesSrc homes.home $V0" + "".join(
        " AND $V%d _ $V%d" % (index, index + 1)
        for index in range(MAX_CONDITIONS - 1))
    last = "$V%d" % (MAX_CONDITIONS - 1)
    head = '<b> "x" %s {%s} </b>' % (last, last)
    for index in reversed(range(MAX_NESTING - 1)):
        head = '<a> "x" $V%d %s </a> {$V%d}' % (index, head, index)
    return "CONSTRUCT %s WHERE %s ORDER BY $V0" % (head, where)


class TestPlanDepthLimit:
    """A plan handed to the mediator instead of a text is held to the
    depth any admitted text translates to: a 2000-level view used to
    raise RecursionError in ``prepare``'s view inlining."""

    def test_the_deepest_admitted_text_is_within_the_bound(self):
        assert plan_depth(translate(parse_xmas(
            _deepest_admitted_text()))) == MAX_PLAN_DEPTH

    def test_head_literals_are_held_to_the_bound(self):
        """Each literal of a template, sibling template and ORDER BY
        key adds a plan level: a thousand of any used to raise
        RecursionError in translate."""
        def text(literals):
            return "CONSTRUCT <r> %s $V {$V} </r> {} WHERE s a $V" % " ".join(
                '"t%d"' % index for index in range(literals))

        # source, getDescendants, groupBy, the constants, concatenate,
        # createElement and tupleDestroy
        assert plan_depth(translate(parse_xmas(text(100)))) == 106
        at_bound = MAX_PLAN_DEPTH - 6
        assert plan_depth(translate(parse_xmas(text(at_bound)))) \
            == MAX_PLAN_DEPTH
        siblings = " ".join("<a%d> $V </a%d> {$V}" % (index, index)
                            for index in range(1000))
        keys = ", ".join(["$V"] * 1000)
        for deep in (text(at_bound + 1), text(1000),
                     "CONSTRUCT <r> %s </r> {} WHERE s a $V" % siblings,
                     "CONSTRUCT <r> $V {$V} </r> {} WHERE s a $V "
                     "ORDER BY %s" % keys):
            with pytest.raises(XMASTranslationError,
                               match="more than the MAX_PLAN_DEPTH of %d"
                               % MAX_PLAN_DEPTH):
                translate(parse_xmas(deep))

    def test_walk_plan_is_preorder_at_any_depth(self):
        plan = _project_chain(2000)
        nodes = list(walk_plan(plan))
        assert len(nodes) == plan_depth(plan) == 2003
        assert nodes[0] is plan and isinstance(nodes[-1], Source)
        fig3 = translate(parse_xmas(FIG3_QUERY))

        def recursive(node):
            yield node
            for child in node.inputs:
                yield from recursive(child)

        assert list(walk_plan(fig3)) == list(recursive(fig3))

    def test_a_deep_plan_view_is_a_mediator_error(self):
        mediator = MIXMediator(EngineConfig())
        for name, tree in fig4_sources().items():
            mediator.register_source(name, MaterializedDocument(tree))
        with pytest.raises(MediatorError, match="2003 operators deep"):
            mediator.register_view("deep", _project_chain(2000))
        with pytest.raises(MediatorError, match="%d operators deep, "
                           "more than the %d" % (MAX_PLAN_DEPTH + 1,
                                                 MAX_PLAN_DEPTH)):
            mediator.prepare(_project_chain(MAX_PLAN_DEPTH - 2))

    def test_plans_within_the_bound_are_registered(self):
        mediator = MIXMediator(EngineConfig())
        for name, tree in fig4_sources().items():
            mediator.register_source(name, MaterializedDocument(tree))
        mediator.register_view("deep", _project_chain(MAX_PLAN_DEPTH - 3))
        mediator.register_view("view", _project_chain(100))
        for view in ("view", "deep"):
            # the lazy plan of a view at the bound builds and browses
            # at the default recursion limit
            answer = mediator.prepare(
                "CONSTRUCT <r> $H {$H} </r> {} WHERE %s home $H"
                % view).root
            assert [home.tag for home in answer.children()] \
                == ["home"] * 2


class TestTranslation:
    def test_fig3_reproduces_fig4_operators(self):
        plan = translate(parse_xmas(FIG3_QUERY))
        kinds = [type(n).__name__ for n in walk_plan(plan)]
        # The Figure 4 stack, modulo the harmless unary concatenate at
        # the answer level.
        assert kinds.count("Join") == 1
        assert kinds.count("GroupBy") == 2
        assert kinds.count("CreateElement") == 2
        assert kinds.count("GetDescendants") == 4
        assert kinds.count("Source") == 2

    def test_fig3_answer(self):
        plan = translate(parse_xmas(FIG3_QUERY))
        assert evaluate(plan, fig4_sources()) == expected_fig4_answer()

    def test_join_predicate_placed_on_join(self):
        plan = translate(parse_xmas(FIG3_QUERY))
        joins = [n for n in walk_plan(plan) if isinstance(n, Join)]
        assert "$V1 = $V2" in str(joins[0].predicate)

    def test_same_source_comparison_becomes_select(self):
        query = parse_xmas(
            "CONSTRUCT <a> $H {$H} </a> {} "
            "WHERE homesSrc homes.home $H AND $H zip._ $V AND $V = 91220")
        plan = translate(query)
        assert any(isinstance(n, Select) for n in walk_plan(plan))
        assert not any(isinstance(n, Join) for n in walk_plan(plan))

    def test_unjoined_sources_become_product(self):
        query = parse_xmas(
            "CONSTRUCT <a> $H {$H} $S {$S} </a> {} "
            "WHERE homesSrc homes.home $H AND schoolsSrc schools.school $S")
        plan = translate(query)
        joins = [n for n in walk_plan(plan) if isinstance(n, Join)]
        assert len(joins) == 1
        assert str(joins[0].predicate) == "true"

    def test_literal_content_constructed(self):
        query = parse_xmas(
            'CONSTRUCT <a> "label:" $X {$X} </a> {} '
            "WHERE homesSrc homes.home $X")
        answer = evaluate(translate(query), fig4_sources())
        assert answer.child(0).label == "label:"

    def test_source_url_mapping(self):
        query = parse_xmas(
            "CONSTRUCT <a> $X {$X} </a> {} WHERE homes p $X")
        plan = translate(query, source_urls={"homes": "rdb://homesdb"})
        sources = [n for n in walk_plan(plan) if isinstance(n, Source)]
        assert sources[0].url == "rdb://homesdb"

    def test_empty_result_constructs_empty_answer(self):
        query = parse_xmas(
            "CONSTRUCT <a> $X {$X} </a> {} WHERE homesSrc nope $X")
        answer = evaluate(translate(query), fig4_sources())
        assert answer == elem("a")

    def test_head_unbound_variable_rejected(self):
        query = parse_xmas(
            "CONSTRUCT <a> $Q {$Q} </a> {} WHERE homesSrc homes.home $H")
        with pytest.raises(XMASTranslationError):
            translate(query)

    def test_rebinding_rejected(self):
        query = parse_xmas(
            "CONSTRUCT <a> $X {$X} </a> {} "
            "WHERE homesSrc homes.home $X AND schoolsSrc s $X")
        with pytest.raises(XMASTranslationError):
            translate(query)

    def test_unbound_path_base_rejected(self):
        query = parse_xmas(
            "CONSTRUCT <a> $X {$X} </a> {} WHERE $Q zip._ $X")
        with pytest.raises(XMASTranslationError):
            translate(query)

    def test_plain_var_must_be_key(self):
        query = parse_xmas(
            "CONSTRUCT <a> $V </a> {} WHERE homesSrc homes.home $V")
        with pytest.raises(XMASTranslationError) as err:
            translate(query)
        assert "group key" in str(err.value)

    def test_mixing_marked_var_and_nested_element_rejected(self):
        query = parse_xmas(
            "CONSTRUCT <a> $X {$X} <b> $Y </b> {$Y} </a> {} "
            "WHERE homesSrc homes.home $X AND schoolsSrc s $Y")
        with pytest.raises(XMASTranslationError):
            translate(query)

    def test_non_self_marker_rejected(self):
        query = parse_xmas(
            "CONSTRUCT <a> $X {$Y} </a> {} "
            "WHERE homesSrc homes.home $X AND $X zip._ $Y")
        with pytest.raises(XMASTranslationError):
            translate(query)

    def test_three_level_nesting(self):
        query = parse_xmas("""
            CONSTRUCT <top>
                        <mid> $H <leafs> $V {$V} </leafs> {$V} </mid> {$H}
                      </top> {}
            WHERE homesSrc homes.home $H AND $H zip._ $V
        """)
        answer = evaluate(translate(query), fig4_sources())
        assert answer.label == "top"
        first_mid = answer.child(0)
        assert first_mid.label == "mid"
        assert first_mid.child(0).label == "home"
        assert first_mid.child(1).label == "leafs"


class TestComposition:
    def _view(self):
        return translate(parse_xmas(
            "CONSTRUCT <zips> $V {$V} </zips> {} "
            "WHERE homesSrc homes.home $H AND $H zip._ $V"))

    def test_inline_view_into_query(self):
        view = self._view()
        query = translate(parse_xmas(
            "CONSTRUCT <out> $Z {$Z} </out> {} WHERE zipview _ $Z"))
        composed = inline_views(query, {"zipview": view})
        # No source named zipview survives.
        urls = [n.url for n in walk_plan(composed)
                if isinstance(n, Source)]
        assert urls == ["homesSrc"]
        answer = evaluate(composed, fig4_sources())
        assert [c.label for c in answer.children] == ["91220", "91223"]

    def test_composition_equals_two_phase_evaluation(self):
        view = self._view()
        query = translate(parse_xmas(
            "CONSTRUCT <out> $Z {$Z} </out> {} WHERE zipview _ $Z"))
        composed = inline_views(query, {"zipview": view})
        # Reference: evaluate the view, then the query over its answer.
        view_answer = evaluate(view, fig4_sources())
        direct = evaluate(query, {"zipview": view_answer})
        assert evaluate(composed, fig4_sources()) == direct

    def test_views_over_views(self):
        base = self._view()
        middle = translate(parse_xmas(
            "CONSTRUCT <mid> $Z {$Z} </mid> {} WHERE base _ $Z"))
        top = translate(parse_xmas(
            "CONSTRUCT <top> $M {$M} </top> {} WHERE middle _ $M"))
        composed = inline_views(top, {"base": base, "middle": middle})
        answer = evaluate(composed, fig4_sources())
        assert answer.label == "top"
        assert len(answer.children) == 2
