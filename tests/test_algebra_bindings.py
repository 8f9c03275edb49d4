"""Unit tests for binding lists and predicates."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import (
    And,
    Binding,
    BindingList,
    LIST_LABEL,
    Comparison,
    Const,
    Not,
    Or,
    TruePredicate,
    Var,
    compare_values,
    make_list_value,
    value_key,
    value_text,
)
from repro.xtree import elem, leaf


class TestBinding:
    def test_value_lookup(self):
        home = elem("home", elem("zip", "91220"))
        binding = Binding([("H", home)])
        assert binding.value("H") is home

    def test_missing_variable_raises(self):
        binding = Binding([("H", leaf("x"))])
        with pytest.raises(KeyError):
            binding.value("S")

    def test_extend_preserves_order_and_shares_values(self):
        home = elem("home")
        school = elem("school")
        binding = Binding([("H", home)]).extend("S", school)
        assert binding.variables == ["H", "S"]
        assert binding.value("H") is home
        assert binding.value("S") is school

    def test_extend_rejects_rebinding(self):
        binding = Binding([("H", leaf("x"))])
        with pytest.raises(ValueError):
            binding.extend("H", leaf("y"))

    def test_duplicate_variable_rejected(self):
        with pytest.raises(ValueError):
            Binding([("H", leaf("x")), ("H", leaf("y"))])

    def test_project(self):
        binding = Binding([("A", leaf("1")), ("B", leaf("2")),
                           ("C", leaf("3"))])
        assert binding.project(["C", "A"]).variables == ["C", "A"]

    def test_equality(self):
        assert Binding([("X", leaf("1"))]) == Binding([("X", leaf("1"))])
        assert Binding([("X", leaf("1"))]) != Binding([("X", leaf("2"))])


class TestBindingList:
    def test_schema_enforced(self):
        bl = BindingList([Binding([("X", leaf("1"))])])
        with pytest.raises(ValueError):
            bl.append(Binding([("Y", leaf("2"))]))

    def test_tree_encoding_round_trip(self):
        bl = BindingList([
            Binding([("X", elem("a", "1")), ("Y", leaf("y1"))]),
            Binding([("X", elem("a", "2")), ("Y", leaf("y2"))]),
        ])
        encoded = bl.to_tree()
        assert encoded.label == "bs"
        assert [c.label for c in encoded.children] == ["b", "b"]
        assert BindingList.from_tree(encoded) == bl

    def test_tree_encoding_shares_value_nodes(self):
        value = elem("a", "1")
        bl = BindingList([Binding([("X", value)])])
        assert bl.to_tree().child(0).child(0).child(0) is value

    def test_from_tree_rejects_malformed(self):
        with pytest.raises(ValueError):
            BindingList.from_tree(elem("nope"))
        with pytest.raises(ValueError):
            BindingList.from_tree(elem("bs", elem("x")))


class TestListValues:
    def test_make_and_inspect(self):
        items = (elem("s", "1"), elem("s", "2"))
        value = make_list_value(items)
        assert value.label == LIST_LABEL
        assert value.children == items

    def test_value_key_structural(self):
        assert value_key(elem("a", "1")) == value_key(elem("a", "1"))
        assert value_key(elem("a", "1")) != value_key(elem("a", "2"))

    def test_value_text(self):
        assert value_text(leaf("91220")) == "91220"
        assert value_text(elem("zip", "91220")) == "91220"
        assert value_text(elem("home", elem("zip", "91220"),
                               elem("beds", "3"))) == "912203"


class TestPredicates:
    def _lookup(self, **values):
        return lambda var: values[var]

    def test_numeric_comparison(self):
        assert compare_values("10", "<", "9.5") is False
        assert compare_values("10", ">", "9.5") is True
        assert compare_values("10", "=", "10.0") is True

    def test_string_comparison_fallback(self):
        assert compare_values("abc", "<", "abd") is True
        assert compare_values("10", "=", "ten") is False

    def test_comparison_var_var(self):
        pred = Comparison(Var("V1"), "=", Var("V2"))
        assert pred.evaluate(self._lookup(V1="91220", V2="91220"))
        assert not pred.evaluate(self._lookup(V1="91220", V2="91223"))

    def test_comparison_var_const(self):
        pred = Comparison(Var("P"), "<=", Const(100))
        assert pred.evaluate(self._lookup(P="99"))
        assert not pred.evaluate(self._lookup(P="101"))

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            Comparison(Var("X"), "~", Var("Y"))

    def test_boolean_connectives(self):
        p1 = Comparison(Var("A"), "=", Const("1"))
        p2 = Comparison(Var("B"), "=", Const("2"))
        look = self._lookup(A="1", B="3")
        assert And((p1, p2)).evaluate(look) is False
        assert Or((p1, p2)).evaluate(look) is True
        assert Not(p2).evaluate(look) is True
        assert TruePredicate().evaluate(look) is True

    def test_variables_collected(self):
        pred = And((Comparison(Var("A"), "=", Var("B")),
                    Comparison(Var("C"), "<", Const(1))))
        assert pred.variables() == {"A", "B", "C"}

    def test_holds_on_binding(self):
        binding = Binding([("V1", leaf("91220")),
                           ("V2", elem("zip", "91220"))])
        assert Comparison(Var("V1"), "=", Var("V2")).holds(binding)


# ----------------------------------------------------------------------
# Differential: the compiled closure against ``Predicate.evaluate``,
# and ``compare_values`` against the if-chain it replaced (kept here
# as the reference).
# ----------------------------------------------------------------------

_OPS = ["=", "!=", "<", "<=", ">", ">="]
#: numeric look-alikes, strings, and the edges between them
_TEXTS = ["1e3", "1000", "", " 7 ", "7", "nan", "abc", "abd", "10",
          "9.5", "-0", "0", "inf", "ten", "7.0"]
_VARS = ["X", "Y", "Z"]


def _reference_compare(left, op, right):
    try:
        lv, rv = float(left), float(right)
    except (TypeError, ValueError):
        lv, rv = left, right
    if op == "=":
        return lv == rv
    if op == "!=":
        return lv != rv
    if op == "<":
        return lv < rv
    if op == "<=":
        return lv <= rv
    if op == ">":
        return lv > rv
    return lv >= rv


@pytest.mark.parametrize("op", _OPS)
def test_compare_values_equals_the_reference(op):
    for left in _TEXTS:
        for right in _TEXTS:
            assert compare_values(left, op, right) \
                is _reference_compare(left, op, right), (left, op, right)


def test_compare_values_rejects_unknown_operator():
    with pytest.raises(ValueError, match="unknown comparison"):
        compare_values("1", "~", "2")


_operands = st.one_of(
    st.sampled_from(_VARS).map(Var),
    st.sampled_from(_TEXTS + [7, 1000, 9.5, 1e3]).map(Const),
)
_comparisons = st.builds(Comparison, _operands, st.sampled_from(_OPS),
                         _operands)
_predicates = st.recursive(
    st.one_of(_comparisons, st.just(TruePredicate())),
    lambda sub: st.one_of(
        st.lists(sub, min_size=1, max_size=3).map(
            lambda ps: And(tuple(ps))),
        st.lists(sub, min_size=1, max_size=3).map(
            lambda ps: Or(tuple(ps))),
        sub.map(Not),
    ),
    max_leaves=6,
)


@settings(max_examples=400, deadline=None)
@given(
    predicate=_predicates,
    bindings=st.lists(
        st.fixed_dictionaries(
            {var: st.sampled_from(_TEXTS) for var in _VARS}),
        min_size=1, max_size=4),
)
def test_compiled_predicate_equals_evaluate(predicate, bindings):
    """Same verdict, and the same reads of the same variables in the
    same order -- under a lazy operator each read is a run of source
    navigations, so the short-circuits must not move."""
    reads = []

    def getter_of(var):
        def getter(env):
            reads.append(var)
            return env[var]
        return getter

    test = predicate.compile(getter_of)
    assert reads == []          # compiling reads nothing
    for env in bindings:        # compiled once, run per binding
        expected_reads = []

        def lookup(var):
            expected_reads.append(var)
            return env[var]

        expected = predicate.evaluate(lookup)
        del reads[:]
        assert test(env) is expected
        assert reads == expected_reads
