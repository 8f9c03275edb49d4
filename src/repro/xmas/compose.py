"""Composition of queries with view definitions (paper Section 3,
"Preprocessing": the initial plan for ``q' o q``).

Two composition styles, both offered:

* **Algebraic inlining** (:func:`compose_plans`): every ``source``
  operator of the query plan whose URL names a view is replaced by that
  view's plan -- projected to its answer variable and renamed to the
  root variable the query expects.  The result is a single plan the
  rewriter can optimize across the view boundary.

* **Mediator stacking** (in :mod:`repro.mediator`): the view's virtual
  document is registered as a navigable source of the lower mediator --
  Figure 1's tower of lazy mediators.  Operationally equivalent, but
  opaque to rewriting.

Both rely on the same convention: a source's exported root *is* the
document node whose children the query's paths start from, so a view's
constructed ``<answer>`` element slots in for a wrapped source's root
without adjustment.
"""

from __future__ import annotations

from typing import Dict, Mapping

from ..algebra.operators import (
    Operator,
    Project,
    Rename,
    Source,
    TupleDestroy,
)

__all__ = ["compose_plans", "inline_views"]


def _view_subplan(view: TupleDestroy, root_var: str) -> Operator:
    """The view plan as a drop-in replacement for a source operator:
    one binding carrying the answer element under ``root_var``."""
    projected = Project(view.child, [view.var])
    return Rename(projected, {view.var: root_var})


def compose_plans(query_plan: Operator,
                  views: Mapping[str, TupleDestroy]) -> Operator:
    """Replace each ``source[url -> $r]`` whose url is a view name by
    the view's plan.  Unknown urls stay as real sources."""
    if isinstance(query_plan, Source) and query_plan.url in views:
        return _view_subplan(views[query_plan.url], query_plan.out_var)
    if not query_plan.inputs:
        return query_plan
    # Rebuild the node with composed children.  Operators hold their
    # children both in dedicated attributes and in `inputs`; we mutate
    # a shallow copy via the constructor-free route.
    import copy
    clone = copy.copy(query_plan)
    new_inputs = tuple(compose_plans(c, views) for c in query_plan.inputs)
    clone.inputs = new_inputs
    # Keep the named attributes in sync.
    if hasattr(clone, "child"):
        clone.child = new_inputs[0]
    if hasattr(clone, "left"):
        clone.left = new_inputs[0]
        clone.right = new_inputs[1]
    return clone


def inline_views(query_plan: TupleDestroy,
                 views: Mapping[str, TupleDestroy]) -> TupleDestroy:
    """Compose a full query plan with view definitions, transitively
    (views may reference other views; cycles raise RecursionError)."""
    from ..algebra.operators import walk_plan
    composed: Dict[str, TupleDestroy] = dict(views)
    body = query_plan.child
    for _depth in range(33):
        body = compose_plans(body, composed)
        # Re-compose until no view sources remain (views over views).
        if not any(isinstance(n, Source) and n.url in composed
                   for n in walk_plan(body)):
            return TupleDestroy(body, query_plan.var)
    raise RecursionError(
        "view composition exceeded depth 32 (cyclic views?)")
