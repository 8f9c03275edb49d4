"""Translation of XMAS queries into XMAS algebra plans (paper Sec. 3).

The body becomes a dataflow of ``source``/``getDescendants`` chains
combined by joins and selections; the head becomes a bottom-up stack of
``groupBy`` / ``concatenate`` / ``createElement`` steps closed by
``tupleDestroy`` -- for the running example this reproduces Figure 4
node for node.

Supported construction fragment
-------------------------------
XMAS's explicit group-by markers make most of the translation direct,
but arbitrary mixtures of collected siblings require outer-union style
plans beyond this reproduction.  Each constructed element may contain,
in any order:

* literal text,
* plain variables (must be group keys of the element or an ancestor),
* EITHER any number of marked variables (``$S {$S}``)
  OR exactly one nested element template (arbitrarily deep),
  OR several nested element templates that all carry the *same* group
  marker and contain no further nesting (the common
  ``<homes>...</homes><schools>...</schools>`` report pattern).

A nested element without a marker defaults to ``{}``: one instance per
enclosing group member.  This covers the paper's queries and the usual
mediated-view patterns; violations raise
:class:`XMASTranslationError` with an explanation.

Collection semantics: ``{$S}`` collects one value per *body binding*
in the group (bag semantics), exactly the paper's groupBy operator --
note Figure 4 contains no duplicate elimination.  Over a body that is
a cartesian product of unjoined sources this multiplies collected
values; join the sources, query them separately, or wrap the body
variable in an explicit distinct plan when set semantics is wanted.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..algebra.operators import (
    Concatenate,
    Constant,
    CreateElement,
    GetDescendants,
    GroupBy,
    Join,
    Operator,
    Select,
    Source,
    TupleDestroy,
    plan_depth,
)
from ..algebra.predicates import Comparison, Const, Predicate, Var
from ..xtree.path import MAX_CONDITIONS, MAX_NESTING
from ..xtree.tree import Tree, leaf
from .ast import (
    ComparisonCondition,
    ElementTemplate,
    LiteralContent,
    PathCondition,
    VarUse,
    XMASQuery,
)

__all__ = ["translate", "XMASTranslationError", "MAX_PLAN_DEPTH"]

#: The deepest plan :func:`translate` builds for a text within the
#: parser's limits (``MAX_CONDITIONS`` conditions, elements nested
#: ``MAX_NESTING`` deep): each condition adds at most one level over
#: its source, each nested element at most four (groupBy, the
#: constant of one literal, concatenate, createElement), and the
#: source, one ORDER BY key and tupleDestroy one each.  A plan handed
#: to the mediator instead of a text is held to it, and so is a text
#: the parser admits whose head or ORDER BY clause is wider than that
#: (more literals per element, sibling templates or keys):
#: :func:`translate` refuses it with :class:`XMASTranslationError`.
MAX_PLAN_DEPTH = MAX_CONDITIONS + 4 * MAX_NESTING + 3


from ..errors import ReproError


class XMASTranslationError(ReproError):
    """Raised when a query is outside the supported XMAS fragment or
    semantically ill-formed (unbound/rebinding variables, etc.)."""


class _Fresh:
    """Generator of internal variable names that cannot clash with
    user variables (user vars never start with '_')."""

    def __init__(self):
        self.counter = 0

    def __call__(self, hint: str = "v") -> str:
        self.counter += 1
        return "_%s%d" % (hint, self.counter)


def translate(query: XMASQuery,
              source_urls: Optional[Dict[str, str]] = None
              ) -> TupleDestroy:
    """Translate a parsed XMAS query into a full algebra plan.

    ``source_urls`` optionally maps body source names to URLs (default:
    the names themselves are the URLs).
    """
    fresh = _Fresh()
    body = _translate_body(query, source_urls or {}, fresh)
    head_vars = _head_variables(query.head)
    bound = set(body.output_variables())
    unbound = head_vars - bound
    if unbound:
        raise XMASTranslationError(
            "head uses unbound variable(s): %s"
            % ", ".join("$" + v for v in sorted(unbound)))
    for var, _desc in query.order_by:
        if var not in bound:
            raise XMASTranslationError(
                "ORDER BY over unbound variable $%s" % var)
    # Mixed-direction multi-key ordering needs per-key stable passes,
    # applied in reverse significance order.
    from ..algebra.operators import OrderBy
    for var, descending in reversed(query.order_by):
        body = OrderBy(body, [var], descending)
    plan, out_var = _build_element(query.head, body, [], fresh)
    return TupleDestroy(plan, out_var)


# ----------------------------------------------------------------------
# Body
# ----------------------------------------------------------------------

def _translate_body(query: XMASQuery, source_urls: Dict[str, str],
                    fresh: _Fresh) -> Operator:
    path_conditions = [c for c in query.conditions
                       if isinstance(c, PathCondition)]
    comparisons = [c for c in query.conditions
                   if isinstance(c, ComparisonCondition)]

    # One component per source, keyed by the variables it binds.
    components: List[Tuple[Operator, Set[str]]] = []
    source_roots: Dict[str, str] = {}
    for name in query.source_names():
        root_var = fresh("root_" + name)
        url = source_urls.get(name, name)
        components.append((Source(url, root_var), {root_var}))
        source_roots[name] = root_var

    bound: Set[str] = set()
    for cond in path_conditions:
        if cond.var in bound:
            raise XMASTranslationError(
                "variable $%s is bound more than once" % cond.var)
        bound.add(cond.var)

    pending = list(path_conditions)
    while pending:
        progressed = False
        for cond in list(pending):
            base_var = (source_roots[cond.base] if cond.base_is_source
                        else cond.base[1])
            for index, (plan, vars_) in enumerate(components):
                if base_var in vars_:
                    components[index] = (
                        GetDescendants(plan, base_var, cond.path,
                                       cond.var),
                        vars_ | {cond.var},
                    )
                    pending.remove(cond)
                    progressed = True
                    break
        if not progressed:
            broken = ", ".join(str(c) for c in pending)
            raise XMASTranslationError(
                "path condition(s) with unbound base: %s" % broken)

    # Comparisons: same-component ones become selects; cross-component
    # ones become join predicates.
    def predicate_of(cond: ComparisonCondition) -> Predicate:
        right = (Var(cond.right[1]) if isinstance(cond.right, tuple)
                 else Const(cond.right))
        return Comparison(Var(cond.left), cond.op, right)

    def component_of(var: str) -> int:
        for index, (_plan, vars_) in enumerate(components):
            if var in vars_:
                return index
        raise XMASTranslationError(
            "comparison uses unbound variable $%s" % var)

    for cond in comparisons:
        pred = predicate_of(cond)
        involved = sorted({component_of(v) for v in pred.variables()})
        if not involved:
            continue
        if len(involved) == 1:
            index = involved[0]
            plan, vars_ = components[index]
            components[index] = (Select(plan, pred), vars_)
        else:
            # Join the first two involved components on this predicate;
            # additional components (3-way predicates) are unusual and
            # handled by folding.
            first, second = involved[0], involved[1]
            left_plan, left_vars = components[first]
            right_plan, right_vars = components[second]
            merged = (Join(left_plan, right_plan, pred),
                      left_vars | right_vars)
            remaining = [c for i, c in enumerate(components)
                         if i not in (first, second)]
            components = [merged] + remaining
            extra = involved[2:]
            if extra:
                raise XMASTranslationError(
                    "predicates spanning three or more sources are "
                    "not supported: %s" % cond)

    # Any components never tied by a predicate combine via product.
    from ..algebra.operators import product
    plan, vars_ = components[0]
    for other_plan, other_vars in components[1:]:
        plan = product(plan, other_plan)
        vars_ |= other_vars
    return plan


# ----------------------------------------------------------------------
# Head
# ----------------------------------------------------------------------

def _head_variables(template: ElementTemplate) -> Set[str]:
    names: Set[str] = set(template.group or [])
    for child in template.children:
        if isinstance(child, ElementTemplate):
            names |= _head_variables(child)
        elif isinstance(child, VarUse):
            names.add(child.name)
            names |= set(child.group or [])
    return names


def _build_sibling_elements(parent: ElementTemplate,
                            nested: List[ElementTemplate],
                            plan: Operator,
                            keys: Sequence[str],
                            fresh: _Fresh) -> Tuple[Operator, Dict]:
    """Several nested element templates under one parent.

    Supported when they all carry the same group marker and contain no
    further nesting: one joint groupBy collects every marked variable
    of every sibling, the siblings' instances are created per collapsed
    binding, and a second groupBy collects the instances per parent
    group.  Returns (plan, {id(child): list_var}).
    """
    markers = {tuple(c.group if c.group is not None else [])
               for c in nested}
    if len(markers) != 1:
        raise XMASTranslationError(
            "<%s> has nested elements with different group markers; "
            "only equal markers are supported for sibling templates"
            % parent.tag)
    sub_own = list(markers.pop())
    sub_keys = list(keys) + [v for v in sub_own if v not in keys]

    # Validate the siblings and gather their collected variables.
    agg_out: Dict[str, str] = {}
    aggregations: List[Tuple[str, str]] = []
    for child in nested:
        for item in child.children:
            if isinstance(item, ElementTemplate):
                raise XMASTranslationError(
                    "nested element <%s> inside the sibling group of "
                    "<%s> nests further; only one nested element per "
                    "element supports arbitrary depth"
                    % (item.tag, parent.tag))
            if isinstance(item, VarUse):
                if item.group is None:
                    if item.name not in sub_keys:
                        raise XMASTranslationError(
                            "plain variable $%s in <%s> is not a "
                            "group key (keys: %s)"
                            % (item.name, child.tag,
                               ", ".join("$" + k for k in sub_keys)))
                else:
                    if item.group != [item.name]:
                        raise XMASTranslationError(
                            "marker {%s} on $%s: only {$%s} is "
                            "supported"
                            % (", ".join("$" + g for g in item.group),
                               item.name, item.name))
                    if item.name not in agg_out:
                        out = fresh("L")
                        agg_out[item.name] = out
                        aggregations.append((item.name, out))

    plan = GroupBy(plan, sub_keys, aggregations)

    # Build each sibling's instance per collapsed binding.
    instance_vars: List[Tuple[ElementTemplate, str]] = []
    for child in nested:
        content_vars: List[str] = []
        for item in child.children:
            if isinstance(item, LiteralContent):
                const_var = fresh("c")
                plan = Constant(plan, leaf(item.text), const_var)
                content_vars.append(const_var)
            elif isinstance(item, VarUse) and item.group is None:
                content_vars.append(item.name)
            else:
                content_vars.append(agg_out[item.name])
        content_var = fresh("C")
        if content_vars:
            plan = Concatenate(plan, content_vars, content_var)
        else:
            plan = Constant(plan, Tree("list"), content_var)
        element_var = fresh("E")
        plan = CreateElement(plan, child.tag, content_var, element_var)
        instance_vars.append((child, element_var))

    # Collect the instances per parent group.
    parent_aggs = [(var, fresh("L")) for _child, var in instance_vars]
    plan = GroupBy(plan, list(keys), parent_aggs)
    collected = {
        id(child): out
        for (child, _var), (_in, out) in zip(instance_vars, parent_aggs)
    }
    return plan, collected


def _build_element(template: ElementTemplate, plan: Operator,
                   context_keys: Sequence[str],
                   fresh: _Fresh) -> Tuple[Operator, str]:
    """Build one element template.

    Returns a plan whose bindings are collapsed to one per distinct
    combination of ``context_keys + template.group``, with a variable
    holding the constructed element of each binding.
    """
    own = template.group if template.group is not None else []
    keys = list(context_keys) + [v for v in own
                                 if v not in context_keys]

    marked = [c for c in template.children
              if isinstance(c, VarUse) and c.group is not None]
    nested = [c for c in template.children
              if isinstance(c, ElementTemplate)]
    plain = [c for c in template.children
             if isinstance(c, VarUse) and c.group is None]

    if nested and marked:
        raise XMASTranslationError(
            "<%s> mixes a collected variable with a nested element; "
            "this is outside the supported XMAS fragment" % template.tag)

    for child in plain:
        if child.name not in keys:
            raise XMASTranslationError(
                "plain variable $%s in <%s> is not a group key of the "
                "element or an ancestor (keys here: %s); add a marker "
                "to collect it or group by it"
                % (child.name, template.tag,
                   ", ".join("$" + k for k in keys) or "none"))

    # Collapse the plan to `keys` granularity, collecting what needs
    # collecting.
    collected: Dict[int, str] = {}
    if len(nested) == 1:
        plan, instance_var = _build_element(nested[0], plan, keys, fresh)
        list_var = fresh("L")
        plan = GroupBy(plan, keys, [(instance_var, list_var)])
        collected[id(nested[0])] = list_var
    elif len(nested) > 1:
        plan, collected = _build_sibling_elements(template, nested,
                                                 plan, keys, fresh)
    else:
        aggregations = []
        for child in marked:
            if child.group != [child.name]:
                raise XMASTranslationError(
                    "marker {%s} on $%s: only the collect-self form "
                    "{$%s} is supported"
                    % (", ".join("$" + g for g in child.group),
                       child.name, child.name))
            out = fresh("L")
            aggregations.append((child.name, out))
            collected[id(child)] = out
        plan = GroupBy(plan, keys, aggregations)

    # Each literal is one constant over the plan, and concatenate,
    # createElement and tupleDestroy follow: refuse a plan that would
    # pass the bound (many literals, sibling templates or ORDER BY
    # keys) before the chain is built, whose recursive schema checks
    # would pass the recursion limit first.
    literals = [child for child in template.children
                if isinstance(child, LiteralContent)]
    depth = plan_depth(plan) + 3 + len(literals)
    if depth > MAX_PLAN_DEPTH:
        raise XMASTranslationError(
            "<%s> translates to a plan at least %d operators deep, more "
            "than the MAX_PLAN_DEPTH of %d" % (template.tag, depth,
                                               MAX_PLAN_DEPTH))

    # Assemble the content in template order.
    content_vars: List[str] = []
    for child in template.children:
        if isinstance(child, LiteralContent):
            const_var = fresh("c")
            plan = Constant(plan, leaf(child.text), const_var)
            content_vars.append(const_var)
        elif isinstance(child, VarUse) and child.group is None:
            content_vars.append(child.name)
        else:
            content_vars.append(collected[id(child)])

    content_var = fresh("C")
    if content_vars:
        plan = Concatenate(plan, content_vars, content_var)
    else:
        plan = Constant(plan, Tree("list"), content_var)

    element_var = fresh("E")
    plan = CreateElement(plan, template.tag, content_var, element_var)
    return plan, element_var
