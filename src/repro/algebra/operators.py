"""The XMAS algebra: plan nodes (operator AST).

Each node corresponds to one operator of Section 3 of the paper and is
implemented twice: by the eager reference evaluator
(:mod:`repro.algebra.eager`) and as a lazy mediator
(:mod:`repro.lazy`).  ``pretty()`` renders a plan in the layout of the
paper's Figure 4.

Design notes
------------
* ``GroupBy`` generalizes the paper's single collected variable to a
  tuple of ``(var, out_var)`` aggregations; Figure 4 uses exactly one.
* ``Concatenate`` is n-ary (folds the paper's binary case analysis);
  the binary semantics is preserved for two arguments.
* ``Constant`` extends every binding with a fixed tree -- the target of
  literal text in XMAS construction heads.
* ``TupleDestroy`` names the variable whose value becomes the answer
  document root (the paper leaves it implicit in the singleton list).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple, Union

from ..xtree.path import PathExpr, parse_path
from ..xtree.tree import Tree
from .predicates import Predicate, TruePredicate

__all__ = [
    "Operator", "Source", "Constant", "GetDescendants", "Select", "Join",
    "product", "Union", "Difference", "Distinct", "Project", "GroupBy",
    "OrderBy", "Concatenate", "CreateElement", "TupleDestroy",
    "PlanError", "walk_plan", "plan_depth",
]


from ..errors import ReproError


class PlanError(ReproError):
    """Raised for structurally invalid plans."""


class Operator:
    """Base class of all plan nodes."""

    #: subclasses set this to their child operators
    inputs: Tuple["Operator", ...] = ()

    def output_variables(self) -> List[str]:
        """The variable schema of the binding list this node emits."""
        raise NotImplementedError

    def signature(self) -> str:
        """Short one-line description, Figure-4 style."""
        raise NotImplementedError

    def validate(self) -> None:
        """Raise PlanError when variables are used before being bound."""
        for child in self.inputs:
            child.validate()
        self._validate_self()

    def _validate_self(self) -> None:
        pass

    def _require(self, variables: Sequence[str], available: Sequence[str],
                 what: str) -> None:
        missing = [v for v in variables if v not in available]
        if missing:
            raise PlanError(
                "%s references unbound variable(s) %s (bound: %s)"
                % (what, ", ".join("$" + v for v in missing),
                   ", ".join("$" + v for v in available) or "none")
            )

    def pretty(self, indent: int = 0) -> str:
        """Indented plan tree (root at top, like Figure 4 rotated)."""
        pad = "  " * indent
        lines = [pad + self.signature()]
        for child in self.inputs:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return "<%s>" % self.signature()


def walk_plan(plan: Operator) -> Iterator[Operator]:
    """All nodes of a plan in preorder, root first -- an explicit
    stack, so a plan of any depth is walked without recursion."""
    stack = [plan]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.inputs))


def plan_depth(plan: Operator) -> int:
    """The number of operators on the plan's longest root-to-leaf
    path, measured without recursion."""
    deepest = 0
    stack = [(plan, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        for child in node.inputs:
            stack.append((child, depth + 1))
    return deepest


# ----------------------------------------------------------------------
# Leaves
# ----------------------------------------------------------------------

class Source(Operator):
    """``source_{url -> v}``: the singleton binding list
    ``bs[b[v[root]]]`` for the root element at ``url``."""

    def __init__(self, url: str, out_var: str):
        self.url = url
        self.out_var = out_var
        self.inputs = ()

    def output_variables(self) -> List[str]:
        return [self.out_var]

    def signature(self) -> str:
        return "source[%s -> $%s]" % (self.url, self.out_var)


# ----------------------------------------------------------------------
# Unary operators
# ----------------------------------------------------------------------

class Constant(Operator):
    """Extend each binding with a fixed tree value."""

    def __init__(self, child: Operator, value: Tree, out_var: str):
        self.child = child
        self.value = value
        self.out_var = out_var
        self.inputs = (child,)

    def output_variables(self) -> List[str]:
        return self.child.output_variables() + [self.out_var]

    def signature(self) -> str:
        return "constant[%s -> $%s]" % (
            self.value.sexpr(max_depth=1), self.out_var)

    def _validate_self(self) -> None:
        if self.out_var in self.child.output_variables():
            raise PlanError("constant rebinds $%s" % self.out_var)


class GetDescendants(Operator):
    """``getDescendants_{e, re -> ch}``: for each input binding and each
    descendant of ``b.e`` reachable by a label path matching ``re`` (in
    document order), emit ``b + ch[d]``."""

    def __init__(self, child: Operator, parent_var: str,
                 path: Union[str, PathExpr], out_var: str):
        self.child = child
        self.parent_var = parent_var
        self.path: PathExpr = (parse_path(path) if isinstance(path, str)
                               else path)
        self.out_var = out_var
        self.inputs = (child,)

    def output_variables(self) -> List[str]:
        return self.child.output_variables() + [self.out_var]

    def signature(self) -> str:
        return "getDescendants[$%s, %s -> $%s]" % (
            self.parent_var, self.path, self.out_var)

    def _validate_self(self) -> None:
        available = self.child.output_variables()
        self._require([self.parent_var], available, self.signature())
        if self.out_var in available:
            raise PlanError("getDescendants rebinds $%s" % self.out_var)


class Select(Operator):
    """``sigma_p``: keep bindings satisfying the predicate."""

    def __init__(self, child: Operator, predicate: Predicate):
        self.child = child
        self.predicate = predicate
        self.inputs = (child,)

    def output_variables(self) -> List[str]:
        return self.child.output_variables()

    def signature(self) -> str:
        return "select[%s]" % self.predicate

    def _validate_self(self) -> None:
        self._require(sorted(self.predicate.variables()),
                      self.child.output_variables(), self.signature())


class Project(Operator):
    """``pi_{vars}``: keep only the named variables (in given order)."""

    def __init__(self, child: Operator, variables: Sequence[str]):
        self.child = child
        self.variables = list(variables)
        self.inputs = (child,)

    def output_variables(self) -> List[str]:
        return list(self.variables)

    def signature(self) -> str:
        return "project[%s]" % ", ".join("$" + v for v in self.variables)

    def _validate_self(self) -> None:
        self._require(self.variables, self.child.output_variables(),
                      self.signature())


class Rename(Operator):
    """``rho_{old -> new}``: rename variables (values untouched).

    Needed by view composition: the view plan's answer variable is
    renamed to the root variable the consuming query expects.
    """

    def __init__(self, child: Operator, mapping: dict):
        self.child = child
        self.mapping = dict(mapping)
        self.inputs = (child,)

    def output_variables(self) -> List[str]:
        return [self.mapping.get(v, v)
                for v in self.child.output_variables()]

    def signature(self) -> str:
        return "rename[%s]" % ", ".join(
            "$%s -> $%s" % (old, new)
            for old, new in self.mapping.items())

    def _validate_self(self) -> None:
        available = self.child.output_variables()
        self._require(list(self.mapping), available, self.signature())
        out = self.output_variables()
        if len(set(out)) != len(out):
            raise PlanError("rename creates duplicate variables: %s"
                            % out)


class Distinct(Operator):
    """Duplicate elimination by structural value equality, preserving
    first-occurrence order."""

    def __init__(self, child: Operator):
        self.child = child
        self.inputs = (child,)

    def output_variables(self) -> List[str]:
        return self.child.output_variables()

    def signature(self) -> str:
        return "distinct"


class GroupBy(Operator):
    """``groupBy_{keys}, v -> l``: one output binding per distinct
    combination of the key variables (first-occurrence order), carrying
    the keys plus one ``list[...]`` collection per aggregation.

    ``aggregations`` is a sequence of ``(var, out_var)`` pairs; the
    paper's operator is the single-pair case.
    """

    def __init__(self, child: Operator, group_vars: Sequence[str],
                 aggregations: Sequence[Tuple[str, str]]):
        self.child = child
        self.group_vars = list(group_vars)
        self.aggregations = [tuple(a) for a in aggregations]
        self.inputs = (child,)

    def output_variables(self) -> List[str]:
        return self.group_vars + [out for _, out in self.aggregations]

    def signature(self) -> str:
        keys = ", ".join("$" + v for v in self.group_vars)
        aggs = ", ".join("$%s -> $%s" % (v, o)
                         for v, o in self.aggregations)
        return "groupBy[{%s}, %s]" % (keys, aggs)

    def _validate_self(self) -> None:
        available = self.child.output_variables()
        self._require(self.group_vars, available, self.signature())
        self._require([v for v, _ in self.aggregations], available,
                      self.signature())
        outs = [o for _, o in self.aggregations]
        if len(set(outs)) != len(outs):
            raise PlanError("duplicate aggregation outputs in %s"
                            % self.signature())
        for out in outs:
            if out in self.group_vars:
                raise PlanError("groupBy output $%s collides with a key"
                                % out)


class OrderBy(Operator):
    """``orderBy_{x1..xk}``: reorder bindings by the values of the key
    variables (stable; numeric-aware string comparison).

    Example 1's unbrowsable view: no output can be produced before the
    whole input has been seen.
    """

    def __init__(self, child: Operator, variables: Sequence[str],
                 descending: bool = False):
        self.child = child
        self.variables = list(variables)
        self.descending = descending
        self.inputs = (child,)

    def output_variables(self) -> List[str]:
        return self.child.output_variables()

    def signature(self) -> str:
        direction = " desc" if self.descending else ""
        return "orderBy[%s%s]" % (
            ", ".join("$" + v for v in self.variables), direction)

    def _validate_self(self) -> None:
        self._require(self.variables, self.child.output_variables(),
                      self.signature())


class Concatenate(Operator):
    """``concatenate_{x1..xn -> z}``: per binding, a ``list[...]`` whose
    items are the concatenation of each argument's items (a list value
    contributes its items, a non-list value contributes itself)."""

    def __init__(self, child: Operator, in_vars: Sequence[str],
                 out_var: str):
        if not in_vars:
            raise PlanError("concatenate needs at least one variable")
        self.child = child
        self.in_vars = list(in_vars)
        self.out_var = out_var
        self.inputs = (child,)

    def output_variables(self) -> List[str]:
        return self.child.output_variables() + [self.out_var]

    def signature(self) -> str:
        return "concatenate[%s -> $%s]" % (
            ", ".join("$" + v for v in self.in_vars), self.out_var)

    def _validate_self(self) -> None:
        available = self.child.output_variables()
        self._require(self.in_vars, available, self.signature())
        if self.out_var in available:
            raise PlanError("concatenate rebinds $%s" % self.out_var)


class CreateElement(Operator):
    """``createElement_{label, ch -> e}``: per binding, a new element
    whose label is ``label`` (a constant string, or a variable whose
    value's text is used) and whose children are the *subtrees* of the
    ``ch`` value (the items, for a list value)."""

    def __init__(self, child: Operator, label: Union[str, Tuple[str, str]],
                 content_var: str, out_var: str):
        self.child = child
        # label: plain string constant, or ("var", name) for a variable.
        if isinstance(label, tuple):
            kind, name = label
            if kind != "var":
                raise PlanError("bad label spec %r" % (label,))
            self.label_var: Optional[str] = name
            self.label_const: Optional[str] = None
        else:
            self.label_var = None
            self.label_const = label
        self.content_var = content_var
        self.out_var = out_var
        self.inputs = (child,)

    def output_variables(self) -> List[str]:
        return self.child.output_variables() + [self.out_var]

    def signature(self) -> str:
        label = ("$" + self.label_var if self.label_var
                 else self.label_const)
        return "createElement[%s, $%s -> $%s]" % (
            label, self.content_var, self.out_var)

    def _validate_self(self) -> None:
        available = self.child.output_variables()
        needed = [self.content_var]
        if self.label_var:
            needed.append(self.label_var)
        self._require(needed, available, self.signature())
        if self.out_var in available:
            raise PlanError("createElement rebinds $%s" % self.out_var)


class Materialize(Operator):
    """An intermediate *eager* step (paper Section 6's future work:
    "a combination of lazy demand-driven evaluation and intermediate
    eager steps").

    Semantically the identity; operationally the lazy implementation
    evaluates its subtree completely on first touch and serves all
    subsequent navigation from memory.  The hybrid optimizer inserts
    it above subplans whose navigational complexity is unbrowsable --
    they force a full input scan anyway, so buffering the result
    avoids re-paying source navigations on every value access.
    """

    def __init__(self, child: Operator):
        self.child = child
        self.inputs = (child,)

    def output_variables(self) -> List[str]:
        return self.child.output_variables()

    def signature(self) -> str:
        return "materialize"


class TupleDestroy(Operator):
    """``tupleDestroy``: from the singleton list ``bs[b[v[e]]]``, return
    the element ``e`` -- the root of the answer document."""

    def __init__(self, child: Operator, var: Optional[str] = None):
        self.child = child
        child_vars = child.output_variables()
        if var is None:
            if len(child_vars) != 1:
                raise PlanError(
                    "tupleDestroy needs an explicit variable when the "
                    "input schema is %s" % child_vars
                )
            var = child_vars[0]
        self.var = var
        self.inputs = (child,)

    def output_variables(self) -> List[str]:
        return []

    def signature(self) -> str:
        return "tupleDestroy[$%s]" % self.var

    def _validate_self(self) -> None:
        self._require([self.var], self.child.output_variables(),
                      self.signature())


# ----------------------------------------------------------------------
# Binary operators
# ----------------------------------------------------------------------

class Join(Operator):
    """``join_p``: nested-loop join of two binding lists; output order
    is left-major (outer loop on the left input)."""

    def __init__(self, left: Operator, right: Operator,
                 predicate: Predicate):
        self.left = left
        self.right = right
        self.predicate = predicate
        self.inputs = (left, right)

    def output_variables(self) -> List[str]:
        return self.left.output_variables() + self.right.output_variables()

    def signature(self) -> str:
        return "join[%s]" % self.predicate

    def _validate_self(self) -> None:
        left_vars = self.left.output_variables()
        right_vars = self.right.output_variables()
        overlap = set(left_vars) & set(right_vars)
        if overlap:
            raise PlanError(
                "join inputs share variables %s"
                % ", ".join("$" + v for v in sorted(overlap))
            )
        self._require(sorted(self.predicate.variables()),
                      left_vars + right_vars, self.signature())


def product(left: Operator, right: Operator) -> Join:
    """Cartesian product: a join with the true predicate."""
    return Join(left, right, TruePredicate())


class Union(Operator):
    """List union: left bindings followed by right bindings (schemas
    must agree)."""

    def __init__(self, left: Operator, right: Operator):
        self.left = left
        self.right = right
        self.inputs = (left, right)

    def output_variables(self) -> List[str]:
        return self.left.output_variables()

    def signature(self) -> str:
        return "union"

    def _validate_self(self) -> None:
        if self.left.output_variables() != self.right.output_variables():
            raise PlanError(
                "union schemas differ: %s vs %s"
                % (self.left.output_variables(),
                   self.right.output_variables())
            )


class Difference(Operator):
    """List difference: left bindings whose values do not appear (by
    structural equality) in the right input."""

    def __init__(self, left: Operator, right: Operator):
        self.left = left
        self.right = right
        self.inputs = (left, right)

    def output_variables(self) -> List[str]:
        return self.left.output_variables()

    def signature(self) -> str:
        return "difference"

    def _validate_self(self) -> None:
        if self.left.output_variables() != self.right.output_variables():
            raise PlanError(
                "difference schemas differ: %s vs %s"
                % (self.left.output_variables(),
                   self.right.output_variables())
            )
