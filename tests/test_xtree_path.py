"""Unit + property tests for regular path expressions and the NFA."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xtree import (
    Alt,
    Label,
    Opt,
    PathSyntaxError,
    Plus,
    Seq,
    Star,
    Wildcard,
    compile_path,
    naive_match,
    parse_path,
)


class TestParser:
    def test_single_label(self):
        assert parse_path("home") == Label("home")

    def test_wildcard(self):
        assert parse_path("_") == Wildcard()

    def test_underscore_prefixed_name_is_a_label(self):
        assert parse_path("_x") == Label("_x")

    def test_sequence(self):
        assert parse_path("homes.home") == Seq((Label("homes"),
                                                Label("home")))

    def test_alternation(self):
        assert parse_path("a|b") == Alt((Label("a"), Label("b")))

    def test_star_binds_to_atom(self):
        expr = parse_path("a.b*")
        assert expr == Seq((Label("a"), Star(Label("b"))))

    def test_plus_and_opt(self):
        assert parse_path("a+") == Plus(Label("a"))
        assert parse_path("a?") == Opt(Label("a"))

    def test_grouping(self):
        expr = parse_path("(a|b).c")
        assert expr == Seq((Alt((Label("a"), Label("b"))), Label("c")))

    def test_nested_repetition(self):
        assert parse_path("(a.b)*") == Star(Seq((Label("a"), Label("b"))))

    def test_precedence_alt_lowest(self):
        expr = parse_path("a.b|c")
        assert expr == Alt((Seq((Label("a"), Label("b"))), Label("c")))

    def test_str_round_trip(self):
        for text in ["homes.home", "zip._", "(a|b)*.c", "a.b?.c", "x+"]:
            assert parse_path(str(parse_path(text))) == parse_path(text)

    @pytest.mark.parametrize("bad", ["", "   ", "a..b", "a|", "(a", "a)",
                                     "*", ".a"])
    def test_syntax_errors(self, bad):
        with pytest.raises(PathSyntaxError):
            parse_path(bad)


class TestMatching:
    @pytest.mark.parametrize("path,labels,expected", [
        ("homes.home", ["homes", "home"], True),
        ("homes.home", ["homes"], False),
        ("homes.home", ["homes", "home", "zip"], False),
        ("zip._", ["zip", "91220"], True),
        ("zip._", ["zip"], False),
        ("_", ["anything"], True),
        ("_", [], False),
        ("a|b", ["a"], True),
        ("a|b", ["b"], True),
        ("a|b", ["c"], False),
        ("a*", [], True),
        ("a*", ["a", "a", "a"], True),
        ("a*", ["a", "b"], False),
        ("a+", [], False),
        ("a+", ["a"], True),
        ("a?.b", ["b"], True),
        ("a?.b", ["a", "b"], True),
        ("(a|b)*.c", ["a", "b", "a", "c"], True),
        ("(a|b)*.c", ["c"], True),
        ("(a|b)*.c", ["a", "d", "c"], False),
        ("_*.zip", ["x", "y", "zip"], True),
        ("_*.zip", ["zip"], True),
    ])
    def test_matches(self, path, labels, expected):
        assert compile_path(path).matches(labels) is expected

    def test_incremental_stepping(self):
        nfa = compile_path("a.b*.c")
        states = nfa.start_states
        states = nfa.step(states, "a")
        assert nfa.is_alive(states) and not nfa.is_accepting(states)
        states = nfa.step(states, "b")
        assert nfa.is_alive(states)
        states = nfa.step(states, "c")
        assert nfa.is_accepting(states)

    def test_dead_frontier_prunes(self):
        nfa = compile_path("a.b")
        states = nfa.step(nfa.start_states, "x")
        assert not nfa.is_alive(states)
        # Stepping a dead frontier stays dead.
        assert not nfa.is_alive(nfa.step(states, "a"))

    def test_recursive_detection(self):
        assert compile_path("a*").is_recursive
        assert compile_path("a.b+").is_recursive
        assert compile_path("(a.b)?").is_recursive is False
        assert compile_path("homes.home").is_recursive is False

    def test_max_match_length(self):
        assert compile_path("homes.home").max_match_length() == 2
        assert compile_path("a.b?.c").max_match_length() == 3
        assert compile_path("a|b.c").max_match_length() == 2
        assert compile_path("a*").max_match_length() is None


# ----------------------------------------------------------------------
# Property: the NFA agrees with the naive recursive semantics.
# ----------------------------------------------------------------------

_LABELS = ["a", "b", "c"]


def _exprs(depth: int):
    if depth == 0:
        return st.one_of(
            st.sampled_from([Label(x) for x in _LABELS]),
            st.just(Wildcard()),
        )
    sub = _exprs(depth - 1)
    return st.one_of(
        sub,
        st.lists(sub, min_size=2, max_size=3).map(
            lambda ps: Seq(tuple(ps))),
        st.lists(sub, min_size=2, max_size=3).map(
            lambda ps: Alt(tuple(ps))),
        sub.map(Star),
        sub.map(Plus),
        sub.map(Opt),
    )


@settings(max_examples=300, deadline=None)
@given(
    expr=_exprs(2),
    labels=st.lists(st.sampled_from(_LABELS), max_size=6),
)
def test_nfa_matches_naive_semantics(expr, labels):
    assert compile_path(expr).matches(labels) == naive_match(expr, labels)


@settings(max_examples=100, deadline=None)
@given(
    expr=_exprs(2),
    labels=st.lists(st.sampled_from(_LABELS), max_size=6),
)
def test_parse_of_str_is_identity_modulo_matching(expr, labels):
    reparsed = parse_path(str(expr))
    assert (compile_path(reparsed).matches(labels)
            == compile_path(expr).matches(labels))


# ----------------------------------------------------------------------
# Differential: the lazily built DFA behind ``step`` against the
# set-based step it replaced (kept here as the reference).
# ----------------------------------------------------------------------

def _set_based_step(nfa, states, label):
    nxt = set()
    for state in states:
        for guard, target in nfa._transitions[state]:
            if guard is None or guard == label:
                nxt.add(target)
    if not nxt:
        return frozenset()
    return nfa._closure(nxt)


#: labels the generated expressions name, plus ones they never do
_DATA_LABELS = _LABELS + ["z", "", "_", "a.b"]


@settings(max_examples=300, deadline=None)
@given(
    expr=_exprs(2),
    labels=st.lists(st.sampled_from(_DATA_LABELS), max_size=8),
)
def test_dfa_step_equals_set_based_step(expr, labels):
    nfa = compile_path(expr)
    states = nfa.start_states
    for label in labels:
        expected = _set_based_step(nfa, states, label)
        # the first step out of a frontier builds its row, the second
        # reads it
        assert nfa.step(states, label) == expected
        assert nfa.step(states, label) == expected
        states = expected
    assert nfa.matches(labels) == naive_match(expr, labels)


@pytest.mark.parametrize("path", ["_", "_._", "_*", "(_._)+", "_?._"])
def test_dfa_on_wildcard_only_frontiers(path):
    """No transition names a label: every row is its 'any other
    label' entry alone."""
    expr = parse_path(path)
    nfa = compile_path(expr)
    for labels in (["a"], ["z", ""], ["a", "b", "c"], []):
        states = nfa.start_states
        for label in labels:
            assert nfa.step(states, label) \
                == _set_based_step(nfa, states, label)
            states = nfa.step(states, label)
        assert nfa.matches(labels) == naive_match(expr, labels)
    assert all(named == {} for named, _other in nfa._rows.values())


def test_dfa_is_keyed_on_the_expressions_labels_not_the_datas():
    """However many distinct labels the data carries, the table holds
    one row per frontier reached and one entry per label the
    expression names there."""
    nfa = compile_path("a.(b|c)*.d")
    for i in range(500):
        noise = "item%d" % i
        for labels in ([noise], ["a", noise], ["a", "b", noise],
                       ["a", "b", "c", "d"], ["a", "d", noise]):
            nfa.matches(labels)
    assert len(nfa._rows) <= 4
    assert set().union(*(named for named, _ in nfa._rows.values())) \
        <= {"a", "b", "c", "d"}
