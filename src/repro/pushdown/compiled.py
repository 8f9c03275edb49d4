"""The compiled-subplan model: what a wrapper is asked to push.

A *pushable chain* is a maximal unary subplan grounded in exactly one
source: ``Source`` at the bottom, any stack of ``GetDescendants`` /
``Select`` / ``Project`` above it.  ``compile_chain`` recognizes such
chains and summarizes them as a :class:`CompiledSubplan` -- the
source-neutral currency of the capability negotiation
(``wrappers.base.negotiate_push``).  Each backend then decides how
much of the chain it can evaluate natively and answers with one of
the request types below; whatever it cannot fold stays behind as the
*residual*: the mediator replays ``CompiledSubplan.subplan`` over the
pushed result, so a backend that restricts conservatively (or not at
all) is always correct.

The helpers at the bottom (:func:`first_labels`,
:func:`single_hop_value_column`, :func:`child_restriction`,
:func:`comparison_filter`) encode the soundness rules the backends
share:

* a node's children may be restricted to a label set only when the
  node's own value is unobservable (its variable is projected away
  and no filter reads it) and every navigation step out of it starts
  with concrete, non-nullable first labels;
* a ``column OP literal`` filter may drop rows only when it came from
  a single-hop ``col._`` step -- one cell, at most one text leaf, so
  a failing row can never contribute a binding the mediator would
  have kept.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Tuple

from ..algebra.operators import (
    GetDescendants,
    Operator,
    Project,
    Select,
    Source,
)
from ..algebra.predicates import (
    And,
    Comparison,
    Const,
    Predicate,
    TruePredicate,
    Var,
)
from ..xtree.path import (
    Label,
    PathExpr,
    Seq,
    Wildcard,
    compile_path,
)

__all__ = [
    "PathStep",
    "CompiledSubplan",
    "compile_chain",
    "conjuncts",
    "comparison_filter",
    "first_labels",
    "single_hop_value_column",
    "child_restriction",
    "sql_exact_filter",
    "RelationalPushRequest",
    "TableScan",
    "PageFetchRequest",
    "OODBPathQuery",
    "XPathScanRequest",
]

#: XMAS comparison operators flipped around the equals sign, for
#: normalizing ``Const OP Var`` into ``Var OP' Const``.
_FLIPPED_OPS = {"=": "=", "!=": "!=",
                "<": ">", "<=": ">=", ">": "<", ">=": "<="}


@dataclass(frozen=True)
class PathStep:
    """One ``getDescendants`` hop of a pushable chain."""

    parent_var: str
    path: PathExpr
    out_var: str

    def __str__(self) -> str:
        return "$%s %s $%s" % (self.parent_var, self.path, self.out_var)


@dataclass(frozen=True)
class CompiledSubplan:
    """A maximal single-source chain, summarized for negotiation.

    ``subplan`` is the original (un-rewritten) chain; the mediator
    replays it over the pushed result, so every filter and step is
    re-checked -- backends only ever *shrink* what ships, never decide
    final membership.
    """

    url: str
    root_var: str
    steps: Tuple[PathStep, ...]
    filters: Tuple[Predicate, ...]
    output_vars: Tuple[str, ...]
    subplan: Operator = field(compare=False)

    def steps_from(self, var: str) -> Tuple[PathStep, ...]:
        return tuple(s for s in self.steps if s.parent_var == var)

    def filter_references(self, var: str) -> bool:
        return any(var in f.variables() for f in self.filters)

    def describe(self) -> str:
        return "%s: %d step(s), %d filter(s) -> %s" % (
            self.url, len(self.steps), len(self.filters),
            ", ".join("$" + v for v in self.output_vars) or "(nothing)")


def compile_chain(node: Operator) -> Optional[CompiledSubplan]:
    """Recognize ``node`` as a pushable single-source chain.

    Returns None for any structure outside the
    Select/Project/GetDescendants-over-Source shape (joins, n-ary
    operators, stateful operators, renames) -- callers then recurse
    into the node's inputs, so chains *below* an unpushable operator
    are still found.
    """
    steps: List[PathStep] = []
    filters: List[Predicate] = []
    current = node
    while not isinstance(current, Source):
        if isinstance(current, Select):
            filters.extend(conjuncts(current.predicate))
        elif isinstance(current, GetDescendants):
            steps.append(PathStep(current.parent_var, current.path,
                                  current.out_var))
        elif not isinstance(current, Project):
            return None
        if len(current.inputs) != 1:
            return None
        current = current.inputs[0]
    steps.reverse()
    return CompiledSubplan(
        url=current.url,
        root_var=current.out_var,
        steps=tuple(steps),
        filters=tuple(filters),
        output_vars=tuple(node.output_variables()),
        subplan=node,
    )


def conjuncts(predicate: Predicate) -> Tuple[Predicate, ...]:
    """Flatten nested ``And``s into their conjuncts (dropping the
    always-true ones)."""
    if isinstance(predicate, TruePredicate):
        return ()
    if isinstance(predicate, And):
        result: List[Predicate] = []
        for part in predicate.parts:
            result.extend(conjuncts(part))
        return tuple(result)
    return (predicate,)


def comparison_filter(predicate: Predicate
                      ) -> Optional[Tuple[str, str, str]]:
    """A conjunct as ``(var, op, literal_text)``, or None.

    Only ``Var OP Const`` / ``Const OP Var`` comparisons qualify; the
    literal is rendered with ``str`` exactly as
    ``algebra.predicates.evaluate`` would read it.
    """
    if not isinstance(predicate, Comparison):
        return None
    left, op, right = predicate.left, predicate.op, predicate.right
    if isinstance(left, Var) and isinstance(right, Const):
        return (left.name, op, str(right.value))
    if isinstance(left, Const) and isinstance(right, Var):
        return (right.name, _FLIPPED_OPS[op], str(left.value))
    return None


def first_labels(path: PathExpr) -> Optional[FrozenSet[str]]:
    """The concrete labels a path's first hop can take, or None.

    None means "unrestrictable": either a wildcard makes every label
    viable, or the path is nullable (it can match zero hops and bind
    the parent node itself).
    """
    nfa = compile_path(path)
    if nfa.is_accepting(nfa.start_states):
        return None
    return nfa.progress_labels(nfa.start_states)


def single_hop_value_column(path: PathExpr) -> Optional[str]:
    """The column name of a canonical ``col._`` value path, or None.

    This is the only shape whose bindings a row-level filter may
    judge: exactly one cell element, at most one text leaf below it.
    """
    if isinstance(path, Seq) and len(path.parts) == 2 \
            and isinstance(path.parts[0], Label) \
            and isinstance(path.parts[1], Wildcard):
        return path.parts[0].name
    return None


def child_restriction(compiled: CompiledSubplan, var: str
                      ) -> Optional[FrozenSet[str]]:
    """The labels ``var``'s children may be restricted to, or None.

    Restriction is sound only when the node bound to ``var`` is itself
    unobservable (not an output, not read by any filter) and every
    navigation step out of it names concrete non-nullable first
    labels -- then any child outside the set can never reach the
    answer, so the backend may not ship it.
    """
    if var in compiled.output_vars or compiled.filter_references(var):
        return None
    steps = compiled.steps_from(var)
    if not steps:
        return None
    labels: List[str] = []
    for step in steps:
        step_labels = first_labels(step.path)
        if step_labels is None:
            return None
        labels.extend(step_labels)
    return frozenset(labels)


# ----------------------------------------------------------------------
# Per-backend request formats (what push() executes)
# ----------------------------------------------------------------------

#: literals the SQL dialect tokenizes as numbers (relational/sql.py);
#: anything else -- including exotic float spellings like ``1e3`` --
#: must travel quoted.
_SQL_NUMBER = re.compile(r"-?\d+(?:\.\d+)?\Z")


def _sql_literal(text: str) -> str:
    if _SQL_NUMBER.match(text):
        return text
    return "'%s'" % text.replace("'", "''")


def sql_exact_filter(op: str, literal: str) -> bool:
    """Whether ``column OP literal`` means the same under the SQL
    dialect's weak typing as under the mediator's ``compare_values``.

    Numeric literals agree for every operator (both sides coerce to
    numbers whenever the cell allows it).  Non-numeric literals agree
    for (in)equality but can diverge on orderings when a float-valued
    cell renders differently in SQL (``2.0``) and in the exported atom
    (``2``) -- those filters stay residual.  A literal that parses as
    a float without matching the dialect's number syntax (``1e3``)
    would have to travel quoted, changing its meaning, so it is never
    folded.
    """
    if _SQL_NUMBER.match(literal):
        return True
    try:
        float(literal)
    except ValueError:
        return op in ("=", "!=")
    return False


_SQL_OPS = {"=": "=", "!=": "<>",
            "<": "<", "<=": "<=", ">": ">", ">=": ">="}


@dataclass(frozen=True)
class TableScan:
    """One merged SELECT over one table.

    ``columns`` is None for ``*``; ``row_filters`` are
    ``(column, op, literal)`` conjuncts folded into the WHERE clause.
    ``renumber`` records whether filtered rows may be renumbered
    (sound only when the row elements themselves are unobservable);
    when False the wrapper ships every row under its original
    ``rowN`` label and applies the filters itself with the mediator's
    own comparison semantics.
    """

    table: str
    columns: Optional[Tuple[str, ...]] = None
    row_filters: Tuple[Tuple[str, str, str], ...] = ()
    renumber: bool = True

    @property
    def sql(self) -> str:
        text = "SELECT %s FROM %s" % (
            ", ".join(self.columns) if self.columns else "*", self.table)
        if self.row_filters:
            text += " WHERE " + " AND ".join(
                "%s %s %s" % (col, _SQL_OPS[op], _sql_literal(lit))
                for col, op, lit in self.row_filters)
        return text


@dataclass(frozen=True)
class RelationalPushRequest:
    """The relational backend's compiled form: one SELECT per kept
    table (the WHERE/projection folding of Example 5, merged)."""

    database: str
    scans: Tuple[TableScan, ...]

    def describe(self) -> str:
        return "; ".join(scan.sql for scan in self.scans) or \
            "SELECT (no tables)"


@dataclass(frozen=True)
class PageFetchRequest:
    """The webstore backend's compiled form: drain the whole page
    chain from ``first_page`` in one request."""

    first_page: str

    def describe(self) -> str:
        return "GET %s..(follow next links)" % self.first_page


@dataclass(frozen=True)
class OODBPathQuery:
    """The OODB backend's compiled form: ship the extents of
    ``classes`` (None = every class) in one request."""

    store: str
    classes: Optional[Tuple[str, ...]] = None

    def describe(self) -> str:
        extent = ", ".join(self.classes) if self.classes is not None \
            else "*"
        return "extent(%s) of %s" % (extent, self.store)


@dataclass(frozen=True)
class XPathScanRequest:
    """The XML-file backend's compiled form: one scan of the document
    guided by the chain's paths (rendered XPath-style for display)."""

    source: str
    paths: Tuple[str, ...]

    def describe(self) -> str:
        if not self.paths:
            return "scan %s" % self.source
        return "scan %s: %s" % (self.source,
                                " | ".join("/" + p.replace(".", "/")
                                           for p in self.paths))
