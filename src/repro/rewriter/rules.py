"""Rewrite rules for navigational-complexity optimization (Sec. 3,
"Query Rewriting").

The paper omits its rule set for space; we implement the rules its
cost model motivates.  Each rule maps a plan to an improved plan or
None, and reports a name for the optimizer's trace:

* ``merge-selects``: sigma_p1(sigma_p2(x)) -> sigma_(p1 AND p2)(x).
* ``push-select-below-extension``: selections commute below operators
  that merely extend bindings (getDescendants, constant, concatenate,
  createElement) when the predicate ignores the new variable -- the
  filter then prunes *before* descendant scans, cutting source
  navigations.
* ``push-select-into-join``: a selection above a join moves into the
  join predicate (or below the relevant side) so the nested loop skips
  non-matching inner bindings early.
* ``push-select-below-groupby``: predicates over group keys filter the
  input instead of discarding whole groups after they were assembled.
* ``fuse-get-descendants``: getDescendants_{v1, p2 -> v2} over
  getDescendants_{e, p1 -> v1} fuses to a single operator with path
  ``p1.p2`` when the intermediate variable is used nowhere else --
  one incremental NFA walk instead of a nested rescan.
"""

from __future__ import annotations

import copy
from typing import Callable, List, Optional, Tuple

from ..algebra import operators as ops
from ..algebra.predicates import And
from ..xtree.path import Seq

__all__ = ["ALL_RULES", "Rule", "rebuild"]

#: A rule takes a node and returns a replacement or None.
Rule = Tuple[str, Callable[[ops.Operator], Optional[ops.Operator]]]


def rebuild(node: ops.Operator,
            new_inputs: Tuple[ops.Operator, ...]) -> ops.Operator:
    """A shallow copy of ``node`` with replaced children."""
    clone = copy.copy(node)
    clone.inputs = new_inputs
    if hasattr(clone, "child"):
        clone.child = new_inputs[0]
    if hasattr(clone, "left"):
        clone.left = new_inputs[0]
        clone.right = new_inputs[1]
    return clone


# ----------------------------------------------------------------------
# Helper analyses
# ----------------------------------------------------------------------

def _uses_of_variable(plan: ops.Operator, var: str) -> int:
    """How many operator parameters in ``plan`` mention ``var``
    (excluding the operator that binds it)."""
    count = 0
    for node in ops.walk_plan(plan):
        if isinstance(node, ops.GetDescendants):
            if node.parent_var == var:
                count += 1
        elif isinstance(node, ops.Select):
            if var in node.predicate.variables():
                count += 1
        elif isinstance(node, ops.Join):
            if var in node.predicate.variables():
                count += 1
        elif isinstance(node, ops.GroupBy):
            if var in node.group_vars:
                count += 1
            count += sum(1 for v, _ in node.aggregations if v == var)
        elif isinstance(node, ops.OrderBy):
            if var in node.variables:
                count += 1
        elif isinstance(node, ops.Concatenate):
            count += node.in_vars.count(var)
        elif isinstance(node, ops.CreateElement):
            if node.content_var == var or node.label_var == var:
                count += 1
        elif isinstance(node, ops.Project):
            if var in node.variables:
                count += 1
        elif isinstance(node, ops.Rename):
            if var in node.mapping:
                count += 1
        elif isinstance(node, ops.TupleDestroy):
            if node.var == var:
                count += 1
    return count


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------

def merge_selects(node: ops.Operator) -> Optional[ops.Operator]:
    if isinstance(node, ops.Select) \
            and isinstance(node.child, ops.Select):
        inner = node.child
        return ops.Select(inner.child,
                          And((node.predicate, inner.predicate)))
    return None


_EXTENSION_OPS = (ops.GetDescendants, ops.Constant, ops.Concatenate,
                  ops.CreateElement)


def push_select_below_extension(node: ops.Operator
                                ) -> Optional[ops.Operator]:
    if not isinstance(node, ops.Select):
        return None
    child = node.child
    if not isinstance(child, _EXTENSION_OPS):
        return None
    needed = node.predicate.variables()
    below = set(child.child.output_variables())
    if needed <= below:
        pushed = ops.Select(child.child, node.predicate)
        return rebuild(child, (pushed,))
    return None


def push_select_into_join(node: ops.Operator) -> Optional[ops.Operator]:
    if not isinstance(node, ops.Select) \
            or not isinstance(node.child, ops.Join):
        return None
    join = node.child
    needed = node.predicate.variables()
    left_vars = set(join.left.output_variables())
    right_vars = set(join.right.output_variables())
    if needed <= left_vars:
        return ops.Join(ops.Select(join.left, node.predicate),
                        join.right, join.predicate)
    if needed <= right_vars:
        return ops.Join(join.left,
                        ops.Select(join.right, node.predicate),
                        join.predicate)
    # Spans both sides: merge into the join predicate.
    return ops.Join(join.left, join.right,
                    And((join.predicate, node.predicate)))


def push_select_below_groupby(node: ops.Operator
                              ) -> Optional[ops.Operator]:
    if not isinstance(node, ops.Select) \
            or not isinstance(node.child, ops.GroupBy):
        return None
    group = node.child
    if node.predicate.variables() <= set(group.group_vars):
        return rebuild(group,
                       (ops.Select(group.child, node.predicate),))
    return None


def fixed_match_length(expr) -> Optional[int]:
    """The unique match length of a path, or None when variable.

    Fusion is only multiplicity- and order-preserving when the inner
    path has a fixed length: then every fused match decomposes into
    exactly one (inner node, outer node) pair.
    """
    from ..xtree.path import Alt, Label, Opt, Plus, Star, Wildcard
    if isinstance(expr, (Label, Wildcard)):
        return 1
    if isinstance(expr, Seq):
        total = 0
        for part in expr.parts:
            length = fixed_match_length(part)
            if length is None:
                return None
            total += length
        return total
    if isinstance(expr, Alt):
        lengths = {fixed_match_length(o) for o in expr.options}
        if len(lengths) == 1 and None not in lengths:
            return lengths.pop()
        return None
    return None  # Star/Plus/Opt


def nullable_path(expr) -> bool:
    """Whether a path can match the empty step sequence.

    A getDescendants match always consumes at least one step (the
    output node is a proper descendant of its parent), so ``a*`` from
    $X never yields $X itself.  A fused ``p1.a*`` reaches those
    zero-step outer matches through p1 alone, changing the answer.
    """
    from ..xtree.path import Alt, Opt, Plus, Star
    if isinstance(expr, (Star, Opt)):
        return True
    if isinstance(expr, Plus):
        return nullable_path(expr.inner)
    if isinstance(expr, Seq):
        return all(nullable_path(p) for p in expr.parts)
    if isinstance(expr, Alt):
        return any(nullable_path(o) for o in expr.options)
    return False  # Label/Wildcard


def fuse_get_descendants(node: ops.Operator) -> Optional[ops.Operator]:
    if not isinstance(node, ops.GetDescendants) \
            or not isinstance(node.child, ops.GetDescendants):
        return None
    outer, inner = node, node.child
    if outer.parent_var != inner.out_var:
        return None
    if fixed_match_length(inner.path) is None:
        return None
    if nullable_path(outer.path):
        return None
    # The intermediate variable must be used nowhere but as the outer
    # operator's parent; we can only see this subtree, so the caller
    # (optimizer) verifies global uses before enabling this rule.
    fused_path = Seq((inner.path, outer.path))
    return ops.GetDescendants(inner.child, inner.parent_var,
                              fused_path, outer.out_var)


ALL_RULES: List[Rule] = [
    ("merge-selects", merge_selects),
    ("push-select-below-extension", push_select_below_extension),
    ("push-select-into-join", push_select_into_join),
    ("push-select-below-groupby", push_select_below_groupby),
]

#: fuse-get-descendants needs whole-plan usage information; the
#: optimizer applies it separately.
FUSE_RULE: Rule = ("fuse-get-descendants", fuse_get_descendants)
