"""Static navigational-complexity analysis of algebra plans.

Assigns each plan the coarsest browsability class (Definition 2) any
client navigation can exhibit, bottom-up over the operator tree:

* ``source`` is *bounded browsable*: navigations map 1:1.
* ``getDescendants`` with an all-wildcard, star-free path stays
  bounded (each output step mirrors a constant number of input steps);
  a labeled or starred path makes it *(unbounded) browsable* -- the
  next match position depends on the data.  With the sibling-selection
  command ``select(sigma)`` available at the sources, a single-label
  last step is served in one source command and the class improves
  (the paper's Example 1 remark).
* ``select``, ``join``, ``distinct`` are browsable: they scan, but
  never need a whole list regardless of input.
* ``groupBy`` with grouping keys is browsable (finding the next
  distinct key scans a data-dependent stretch of the input); a
  *keyless* groupBy emits its single group as soon as the first input
  binding exists, so its own contribution is bounded.
* ``orderBy``, ``difference`` and ``materialize`` are unbrowsable:
  nothing can be emitted before an entire input has been consumed
  (``materialize`` is *semantically* the identity but operationally
  evaluates its subtree eagerly on first touch).
* structural operators (``concatenate``, ``createElement``,
  ``project``, ``rename``, ``constant``, ``union``) preserve their
  inputs' class.

Composed classes, not max of parts
----------------------------------
A ``getDescendants`` that navigates *into a collected list* (an
aggregation output of ``groupBy``, possibly concatenated or wrapped in
a constructed element) does not simply take the max of the operators
involved: its class is the *composition* of the path class with the
class of streaming the collection itself
(:func:`~repro.navigation.complexity.compose_classes`).  A wildcard
walk over the single group of a keyless groupBy is bounded end to end,
even though "groupBy" sounds browsable; a labeled walk over a keyed
group stays browsable.  The inference therefore tracks, per variable,
the streaming class of collection-valued bindings and composes at the
navigation site.

The benchmark suite checks this analysis against the *empirical*
classifier on the paper's Example 1 views, and the agreement suite
checks it is never more optimistic than the navigation profiler.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..algebra import operators as ops
from ..navigation.complexity import Browsability, compose_classes
from ..xtree.path import Label, PathExpr, Seq, Wildcard

__all__ = ["classify_plan", "classify_path", "explain_plan"]

#: var name -> Definition 2 class of streaming that variable's
#: collection value one member at a time.
_Collections = Dict[str, Browsability]


def classify_path(path: PathExpr,
                  sigma_available: bool = False) -> Browsability:
    """Browsability contributed by one getDescendants path.

    * all-wildcard star-free sequences (``_``, ``_._``): every match
      position is determined by counting, so navigation is bounded;
    * otherwise browsable; a trailing single label with
      ``sigma_available`` is also bounded (one select command finds the
      next match).
    """

    def all_wildcards(expr: PathExpr) -> bool:
        if isinstance(expr, Wildcard):
            return True
        if isinstance(expr, Seq):
            return all(all_wildcards(p) for p in expr.parts)
        return False

    if all_wildcards(path):
        return Browsability.BOUNDED
    if sigma_available:
        # A single label (or wildcards followed by one label) can be
        # served by select(sigma) per level.
        def sigma_servable(expr: PathExpr) -> bool:
            if isinstance(expr, (Label, Wildcard)):
                return True
            if isinstance(expr, Seq):
                return all(isinstance(p, (Label, Wildcard))
                           for p in expr.parts)
            return False

        if sigma_servable(path):
            return Browsability.BOUNDED
    return Browsability.BROWSABLE


def _infer(plan: ops.Operator, sigma_available: bool
           ) -> Tuple[Browsability, _Collections]:
    """Bottom-up class inference: (plan class, collection classes).

    The returned mapping carries, for every variable holding a lazily
    collected *list* value (groupBy aggregations and whatever
    concatenate / createElement builds out of them), the class of
    advancing one member of that list.  Navigation operators compose
    with it instead of max-ing over syntactic parts.
    """
    child_cls = Browsability.BOUNDED
    collections: _Collections = {}
    for child in plan.inputs:
        cls, colls = _infer(child, sigma_available)
        child_cls = compose_classes(child_cls, cls)
        collections.update(colls)

    own = Browsability.BOUNDED
    if isinstance(plan, ops.GetDescendants):
        own = classify_path(plan.path, sigma_available)
        streaming = collections.get(plan.parent_var)
        if streaming is not None:
            # Navigating into a collected list: each output step
            # advances the collection by (at worst) one member, so the
            # composed class is path-class o streaming-class.
            own = compose_classes(own, streaming)
    elif isinstance(plan, (ops.Select, ops.Join, ops.Distinct)):
        own = Browsability.BROWSABLE
    elif isinstance(plan, ops.GroupBy):
        member = compose_classes(
            child_cls, *(collections.get(v, Browsability.BOUNDED)
                         for v, _ in plan.aggregations))
        if plan.group_vars:
            # Finding the next distinct key scans a data-dependent
            # stretch of the input; so does streaming one group.
            own = Browsability.BROWSABLE
            member = compose_classes(member, Browsability.BROWSABLE)
        for _, out in plan.aggregations:
            collections[out] = member
    elif isinstance(plan, (ops.OrderBy, ops.Difference,
                           ops.Materialize)):
        own = Browsability.UNBROWSABLE
    elif isinstance(plan, ops.Concatenate):
        collections[plan.out_var] = compose_classes(
            *(collections.get(v, Browsability.BOUNDED)
              for v in plan.in_vars))
    elif isinstance(plan, ops.CreateElement):
        # The new element's children *are* the content collection;
        # navigating into it streams that collection.
        streaming = collections.get(plan.content_var)
        if streaming is not None:
            collections[plan.out_var] = streaming
    elif isinstance(plan, ops.Rename):
        for old, new in plan.mapping.items():
            if old in collections:
                collections[new] = collections.pop(old)
    elif isinstance(plan, (ops.Source, ops.Constant, ops.Project,
                           ops.Union, ops.TupleDestroy)):
        own = Browsability.BOUNDED
    else:
        own = Browsability.BROWSABLE  # conservative default
    return compose_classes(own, child_cls), collections


def classify_plan(plan: ops.Operator,
                  sigma_available: bool = False) -> Browsability:
    """The static browsability class of a plan."""
    cls, _ = _infer(plan, sigma_available)
    return cls


def explain_plan(plan: ops.Operator,
                 sigma_available: bool = False) -> str:
    """A per-node classification report (root first)."""
    lines = []

    def walk(node: ops.Operator, indent: int) -> None:
        cls = classify_plan(node, sigma_available)
        lines.append("%s%-18s %s"
                     % ("  " * indent, str(cls), node.signature()))
        for child in node.inputs:
            walk(child, indent + 1)

    walk(plan, 0)
    return "\n".join(lines)
