"""Build a tree of lazy mediators from an algebra plan.

"By translating each m_qi into a plan E_qi, which itself is a tree
consisting of 'little' lazy mediators (one for each algebra operation),
we obtain a smoothly integrated, uniform evaluation scheme."
-- paper, Section 3.

``build_lazy_plan`` maps every algebra node to its lazy counterpart;
sources are resolved to NavigableDocuments (wrapped sources, buffer
components, or even *other lazy plans* -- which is exactly how mediator
stacking in Figure 1 works).  ``project`` and ``rename`` have no lazy
class: each becomes the pass-through shape
(:class:`~repro.lazy.base.UnaryOperator`) with a route map, so ``b.X``
goes past them to the operator that binds ``X``.

The plan's schema is checked once, at the public entry points, by
:meth:`~repro.algebra.operators.Operator.validate`; the builder then
walks the plan privately and no lazy constructor checks it again.

Every operator in the resulting tree shares one
:class:`~repro.runtime.context.ExecutionContext`: the frozen
:class:`~repro.runtime.config.EngineConfig` (cache policy, sigma
pushdown, ...), the query's budgeted cache registry, and the tracing
hooks all travel through it instead of through per-constructor
booleans.
"""

from __future__ import annotations

import typing
from typing import Callable, List, Mapping, Optional, Tuple

from ..algebra import operators as ops
from ..navigation.interface import NavigableDocument
from ..pushdown.document import PushedSourceDocument
from ..pushdown.plan import PushedSource
from ..runtime.context import ExecutionContext
from .base import LazyError, LazyOperator, UnaryOperator
from .concat import LazyConcatenate
from .createelem import LazyCreateElement
from .document import VirtualDocument
from .getdesc import LazyGetDescendants
from .groupby import LazyGroupBy
from .join import LazyJoin
from .materialize_op import LazyMaterialize
from .orderby import LazyOrderBy
from .select import LazyConstant, LazySelect
from .setops import LazyDifference, LazyDistinct, LazyUnion
from .source import LazySource

__all__ = ["build_lazy_plan", "build_virtual_document",
           "STATEFUL_OPERATORS"]

#: Resolves a source URL to a navigable document.
DocumentResolver = typing.Union[
    Mapping[str, NavigableDocument],
    Callable[[str], NavigableDocument],
]

#: Plan-node types whose lazy implementation accumulates *state*
#: proportional to its consumed input (beyond evictable memo caches):
#: the caches the static cost pass reasons about.  Values name the
#: state the operator keeps; ``join`` additionally owns the
#: budget-evictable inner memo ("join.inner").
STATEFUL_OPERATORS: Mapping[type, str] = {
    ops.Join: "inner binding cache (join.inner)",
    ops.GroupBy: "group key table (groupBy.keys)",
    ops.Distinct: "seen-value set",
    ops.OrderBy: "full input buffer",
    ops.Difference: "right-input value set",
    ops.Materialize: "materialized subtree result",
}


def _resolve(documents: DocumentResolver, url: str) -> NavigableDocument:
    if callable(documents):
        return documents(url)
    try:
        return documents[url]
    except KeyError:
        raise LazyError("no navigable source for url %r" % url) from None


def build_lazy_plan(plan: ops.Operator, documents: DocumentResolver,
                    context: Optional[ExecutionContext] = None
                    ) -> LazyOperator:
    """Translate an algebra plan (without its TupleDestroy root) into a
    tree of lazy mediators.

    ``context`` carries the engine configuration (cache policy,
    ``use_sigma`` pushdown, ...) and the query's cache registry; when
    omitted, a fresh default context is created and shared by the
    whole operator tree.

    Every built operator is named ``Kind#N``, minted
    deterministically in build order; the name is its repr, so the
    value ids it mints print the same in every run.  With
    ``config.observe_operators`` every built operator is wrapped in a
    :class:`~repro.lazy.observe.SpannedOperator` of that name, so each
    protocol call an operator answers becomes an ``operator`` span in
    the trace.

    The plan's schema is checked once, here, by
    :meth:`~repro.algebra.operators.Operator.validate`; the lazy
    operators do not check it again.
    """
    if isinstance(plan, ops.TupleDestroy):
        raise LazyError(
            "build_virtual_document() handles TupleDestroy roots")
    plan.validate()
    if context is None:
        context = ExecutionContext.create()
    return _build(plan, documents, context)


def _build(plan: ops.Operator, documents: DocumentResolver,
           context: ExecutionContext) -> LazyOperator:
    """:func:`build_lazy_plan` over a validated plan.

    A post-order walk on an explicit stack, so a plan as deep as
    :data:`~repro.xmas.translate.MAX_PLAN_DEPTH` builds at the default
    recursion limit.  Each operator is built after its inputs, left
    to right, and named as it is built: the ``Kind#N`` names follow
    that order.  A pushed chain replays its original chain over a
    :class:`~repro.pushdown.document.PushedSourceDocument` (one native
    request, executed on first navigation) -- the residual evaluation
    that makes conservative backends sound and answers byte-identical
    to the lazy run.
    """
    # Post-order, inputs left to right, is the reverse of a preorder
    # that visits inputs right to left.
    order: List[Tuple[ops.Operator, DocumentResolver]] = []
    stack: List[Tuple[ops.Operator, DocumentResolver]] = [
        (plan, documents)]
    while stack:
        node, docs = stack.pop()
        order.append((node, docs))
        if isinstance(node, PushedSource):
            pushed = PushedSourceDocument(node, context)
            stack.append((node.compiled.subplan,
                          {node.compiled.url: pushed}))
        else:
            for child in node.inputs:
                stack.append((child, docs))
    observe = context.config.observe_operators
    built: List[LazyOperator] = []
    for node, docs in reversed(order):
        arity = 1 if isinstance(node, PushedSource) else len(node.inputs)
        inputs = built[len(built) - arity:]
        del built[len(built) - arity:]
        lazy = _lazy_node(node, inputs, docs, context)
        name = context.mint_operator_name(type(node).__name__)
        if observe:
            from .observe import SpannedOperator
            lazy = SpannedOperator(lazy, name)
        elif lazy.name is None:  # a pushed chain keeps its replay's names
            lazy.name = name
        built.append(lazy)
    return built[0]


def _lazy_node(plan: ops.Operator, inputs: List[LazyOperator],
               documents: DocumentResolver,
               context: ExecutionContext) -> LazyOperator:
    """The lazy operator of one plan node over its built ``inputs``
    (a pushed chain's one input is its built replay)."""
    if isinstance(plan, PushedSource):
        return inputs[0]
    if isinstance(plan, ops.Source):
        return LazySource(_resolve(documents, plan.url), plan.out_var,
                          context)
    if isinstance(plan, ops.Constant):
        return LazyConstant(inputs[0], plan.value, plan.out_var, context)
    if isinstance(plan, ops.GetDescendants):
        return LazyGetDescendants(inputs[0], plan.parent_var,
                                  plan.path, plan.out_var, context)
    if isinstance(plan, ops.Select):
        return LazySelect(inputs[0], plan.predicate, context)
    if isinstance(plan, ops.Project):
        return UnaryOperator(inputs[0], context,
                             {var: var for var in plan.variables})
    if isinstance(plan, ops.Rename):
        return UnaryOperator(inputs[0], context,
                             {plan.mapping.get(var, var): var
                              for var in inputs[0].variables})
    if isinstance(plan, ops.Distinct):
        return LazyDistinct(inputs[0], context)
    if isinstance(plan, ops.Join):
        return LazyJoin(inputs[0], inputs[1], plan.predicate, context)
    if isinstance(plan, ops.Union):
        return LazyUnion(inputs[0], inputs[1], context)
    if isinstance(plan, ops.Difference):
        return LazyDifference(inputs[0], inputs[1], context)
    if isinstance(plan, ops.Materialize):
        return LazyMaterialize(inputs[0], context)
    if isinstance(plan, ops.GroupBy):
        return LazyGroupBy(inputs[0], plan.group_vars,
                           plan.aggregations, context)
    if isinstance(plan, ops.OrderBy):
        return LazyOrderBy(inputs[0], plan.variables,
                           plan.descending, context)
    if isinstance(plan, ops.Concatenate):
        return LazyConcatenate(inputs[0], plan.in_vars,
                               plan.out_var, context)
    if isinstance(plan, ops.CreateElement):
        label = (("var", plan.label_var) if plan.label_var
                 else plan.label_const)
        return LazyCreateElement(inputs[0], label,
                                 plan.content_var, plan.out_var,
                                 context)
    raise LazyError("no lazy implementation for %r" % plan)


def build_virtual_document(plan: ops.Operator,
                           documents: DocumentResolver,
                           context: Optional[ExecutionContext] = None
                           ) -> VirtualDocument:
    """Translate a full plan (TupleDestroy root) into the virtual
    answer document handed to the client."""
    if not isinstance(plan, ops.TupleDestroy):
        raise LazyError(
            "a full plan must be rooted in tupleDestroy, got %s"
            % plan.signature()
        )
    plan.validate()
    if context is None:
        context = ExecutionContext.create()
    lazy = _build(plan.child, documents, context)
    return VirtualDocument(lazy, plan.var)
