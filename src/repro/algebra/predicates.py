"""Predicates for the select and join operators.

Predicates compare bound values (``$V1 = $V2``, ``$P < 100``) with
SQL-ish weak typing: when both sides look numeric they compare as
numbers, otherwise as strings.  Values are compared through
:func:`~repro.algebra.bindings.value_text`, i.e. on their leaf text --
which is what the zip-code join of the running example does.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Dict, Set, Tuple, Union

from .bindings import Binding, value_text

__all__ = ["Predicate", "Comparison", "And", "Or", "Not", "TruePredicate",
           "Var", "Const", "compare_values"]

#: ``getter(env) -> text`` and ``test(env) -> verdict``: the two
#: closure shapes of a compiled predicate (see :meth:`Predicate.compile`)
Getter = Callable[[Any], str]
Test = Callable[[Any], bool]


@dataclass(frozen=True)
class Var:
    """A variable reference in a predicate."""
    name: str

    def __str__(self) -> str:
        return "$%s" % self.name


@dataclass(frozen=True)
class Const:
    """A literal operand."""
    value: Union[str, int, float]

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return '"%s"' % self.value
        return str(self.value)


Operand = Union[Var, Const]


def _weakly_typed(test: Callable[[Any, Any], bool], get_left: Getter,
                  get_right: Getter) -> Test:
    """The test ``env -> bool`` applying ``test`` to the texts
    ``get_left(env)`` and ``get_right(env)``: as numbers when both
    parse as numbers, else as strings.  The one statement of the
    typing rule: ``compare_values`` and every compiled comparison
    run it."""

    def compare(env: Any) -> bool:
        left, right = get_left(env), get_right(env)
        try:
            left_number, right_number = float(left), float(right)
        except (TypeError, ValueError):
            return test(left, right)
        return test(left_number, right_number)

    return compare


#: operator -> the comparison it names
_TESTS: Dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: operator -> its weakly typed comparison of a pair of texts
_COMPARATORS: Dict[str, Test] = {
    op: _weakly_typed(test, operator.itemgetter(0),
                      operator.itemgetter(1))
    for op, test in _TESTS.items()
}


def compare_values(left: str, op: str, right: str) -> bool:
    """Apply ``op`` to two string values with numeric awareness."""
    try:
        compare = _COMPARATORS[op]
    except KeyError:
        raise ValueError(
            "unknown comparison operator %r" % op) from None
    return compare((left, right))


def _constant(text: str) -> Getter:
    return lambda env: text


class Predicate:
    """Base class; subclasses implement evaluation over a binding."""

    def evaluate(self, lookup: Callable[[str], str]) -> bool:
        """Evaluate given ``lookup(var) -> string value``."""
        raise NotImplementedError

    def holds(self, binding: Binding) -> bool:
        """Evaluate against an eager binding."""
        return self.evaluate(lambda var: value_text(binding.value(var)))

    def compile(self, getter_of: Callable[[str], Getter]) -> Test:
        """Lower the predicate tree, once, into one closure
        ``test(env) -> bool`` -- what the lazy ``select`` and ``join``
        run per candidate binding.

        ``getter_of(var)`` is asked once per *mention* of a variable
        and returns ``getter(env) -> text``; ``env`` is whatever the
        caller's getters read (an input binding id, a pair of them).
        ``test(env)`` calls the getters exactly as :meth:`evaluate`
        calls ``lookup`` -- same order, same short-circuits, same
        number of calls per variable, because under a lazy operator
        every call costs source navigations.  What it no longer does
        per binding is walk the tree, test operand types, stringify
        constants or look the comparator up.
        """
        raise NotImplementedError

    def variables(self) -> Set[str]:
        """All variables mentioned (for analysis and rewriting)."""
        raise NotImplementedError


@dataclass(frozen=True)
class Comparison(Predicate):
    left: Operand
    op: str
    right: Operand

    def __post_init__(self):
        if self.op not in _COMPARATORS:
            raise ValueError("unknown comparison operator %r" % self.op)

    def evaluate(self, lookup):
        left = (lookup(self.left.name) if isinstance(self.left, Var)
                else str(self.left.value))
        right = (lookup(self.right.name) if isinstance(self.right, Var)
                 else str(self.right.value))
        return compare_values(left, self.op, right)

    def compile(self, getter_of):
        left, right = self.left, self.right
        if not isinstance(left, Var) and not isinstance(right, Var):
            verdict = compare_values(str(left.value), self.op,
                                     str(right.value))
            return lambda env: verdict
        get_left = (getter_of(left.name) if isinstance(left, Var)
                    else _constant(str(left.value)))
        get_right = (getter_of(right.name) if isinstance(right, Var)
                     else _constant(str(right.value)))
        return _weakly_typed(_TESTS[self.op], get_left, get_right)

    def variables(self):
        names = set()
        if isinstance(self.left, Var):
            names.add(self.left.name)
        if isinstance(self.right, Var):
            names.add(self.right.name)
        return names

    def __str__(self) -> str:
        return "%s %s %s" % (self.left, self.op, self.right)


@dataclass(frozen=True)
class And(Predicate):
    parts: Tuple[Predicate, ...]

    def evaluate(self, lookup):
        return all(p.evaluate(lookup) for p in self.parts)

    def compile(self, getter_of):
        tests = tuple(p.compile(getter_of) for p in self.parts)

        def conjunction(env):
            for test in tests:
                if not test(env):
                    return False
            return True

        return conjunction

    def variables(self):
        names: Set[str] = set()
        for part in self.parts:
            names |= part.variables()
        return names

    def __str__(self) -> str:
        return " AND ".join(str(p) for p in self.parts)


@dataclass(frozen=True)
class Or(Predicate):
    parts: Tuple[Predicate, ...]

    def evaluate(self, lookup):
        return any(p.evaluate(lookup) for p in self.parts)

    def compile(self, getter_of):
        tests = tuple(p.compile(getter_of) for p in self.parts)

        def disjunction(env):
            for test in tests:
                if test(env):
                    return True
            return False

        return disjunction

    def variables(self):
        names: Set[str] = set()
        for part in self.parts:
            names |= part.variables()
        return names

    def __str__(self) -> str:
        return " OR ".join("(%s)" % p for p in self.parts)


@dataclass(frozen=True)
class Not(Predicate):
    inner: Predicate

    def evaluate(self, lookup):
        return not self.inner.evaluate(lookup)

    def compile(self, getter_of):
        inner = self.inner.compile(getter_of)
        return lambda env: not inner(env)

    def variables(self):
        return self.inner.variables()

    def __str__(self) -> str:
        return "NOT (%s)" % self.inner


@dataclass(frozen=True)
class TruePredicate(Predicate):
    """Always true (turns a join into a product)."""

    def evaluate(self, lookup):
        return True

    def compile(self, getter_of):
        return lambda env: True

    def variables(self):
        return set()

    def __str__(self) -> str:
        return "true"
