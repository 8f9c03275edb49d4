"""Pass 2: DTD/schema-aware path and predicate checking (S-codes).

Given schema knowledge about the sources -- a sample document, an
:class:`~repro.xmas.dtd.InferredDTD`, or an explicit
:class:`SchemaGraph` -- this pass walks the plan bottom-up, tracking
for every bound variable the set of element labels it can possibly
hold, and reports:

* ``S010`` unsatisfiable regular path expressions: the product of the
  path NFA with the schema graph reaches no accepting configuration;
* ``S011`` element-name typos: a path label absent from the schema
  vocabulary but close (difflib) to a label that exists;
* ``S020`` dead select branches: predicates statically false (or
  non-trivially true);
* ``S021`` join keys that can never bind: a statically-false join
  predicate, or a key variable whose provenance is empty.

Schema knowledge is *optional* per source; unknown sources simply
contribute open-world provenance and produce no findings.  The open
world also flows through constructed elements, whose content comes
from the view itself rather than any one source schema.
"""

from __future__ import annotations

import difflib
from typing import (
    Dict, FrozenSet, List, Mapping, Optional, Set, Tuple, Union,
)

from ..algebra import operators as ops
from ..algebra.predicates import (
    And, Comparison, Const, Not, Or, Predicate, TruePredicate, Var,
    compare_values,
)
from ..xmas.dtd import InferredDTD
from ..xtree.path import (
    Alt, Label, Opt, PathExpr, PathNFA, Plus, Seq, Star,
)
from ..xtree.tree import Tree
from .findings import Finding

__all__ = ["SchemaGraph", "schema_pass", "static_truth"]

#: What callers may register as "the schema of source X".
SchemaSpec = Union["SchemaGraph", Tree, InferredDTD]


class SchemaGraph:
    """Parent->child element-label edges of one source document.

    ``children[label]`` is the set of labels that may appear below
    ``label``; a label mapped to ``None`` has *open* content (anything
    may appear below it), which makes every path through it
    satisfiable.  ``root`` is the label navigation starts from -- the
    document node a ``source`` operator binds.
    """

    def __init__(self, root: str,
                 children: Mapping[str, Optional[Set[str]]]) -> None:
        self.root = root
        self.children: Dict[str, Optional[Set[str]]] = {
            label: (set(kids) if kids is not None else None)
            for label, kids in children.items()}
        self.labels: Set[str] = set(self.children)
        for kids in self.children.values():
            if kids:
                self.labels.update(kids)

    @classmethod
    def from_tree(cls, tree: Tree) -> "SchemaGraph":
        """Infer the graph from a sample document (closed world: the
        sample is taken as exhaustive for its label vocabulary)."""
        children: Dict[str, Optional[Set[str]]] = {}
        stack = [tree]
        while stack:
            node = stack.pop()
            kids = children.setdefault(node.label, set())
            assert kids is not None
            for child in node.children:
                kids.add(child.label)
                stack.append(child)
        return cls(tree.label, children)

    @classmethod
    def from_dtd(cls, dtd: InferredDTD) -> "SchemaGraph":
        """Build the graph from an inferred DTD; elements with open
        content models stay open."""
        children: Dict[str, Optional[Set[str]]] = {}
        pending = [dtd.root]
        while pending:
            name = pending.pop()
            if name in children:
                continue
            kids = dtd.child_names(name)
            children[name] = kids
            if kids:
                pending.extend(kids)
        return cls(dtd.root, children)

    @classmethod
    def coerce(cls, spec: SchemaSpec) -> "SchemaGraph":
        if isinstance(spec, cls):
            return spec
        if isinstance(spec, Tree):
            return cls.from_tree(spec)
        if isinstance(spec, InferredDTD):
            return cls.from_dtd(spec)
        raise TypeError("cannot build a SchemaGraph from %r" % (spec,))

    def child_labels(self, label: str) -> Optional[Set[str]]:
        """Labels allowed below ``label``; None = open content."""
        if label not in self.children:
            return set()
        return self.children[label]


#: (graph or None, possible labels or None-for-unknown).  An *empty*
#: label set means proven-empty provenance (downstream of an
#: unsatisfiable path); ``None`` means "could be anything".
_Prov = Tuple[Optional[SchemaGraph], Optional[FrozenSet[str]]]
_OPEN: _Prov = (None, None)


def _path_labels(path: PathExpr) -> Set[str]:
    """All label atoms mentioned in a path expression."""
    labels: Set[str] = set()

    def visit(expr: PathExpr) -> None:
        if isinstance(expr, Label):
            labels.add(expr.name)
        elif isinstance(expr, Seq):
            for part in expr.parts:
                visit(part)
        elif isinstance(expr, Alt):
            for option in expr.options:
                visit(option)
        elif isinstance(expr, (Star, Plus, Opt)):
            visit(expr.inner)

    visit(path)
    return labels


def _reachable_finals(nfa: PathNFA, graph: SchemaGraph,
                      start_labels: FrozenSet[str]
                      ) -> Optional[FrozenSet[str]]:
    """Product construction: the labels a match can end on, starting
    below any of ``start_labels``.

    Returns the (possibly empty) set of final labels, or ``None`` when
    the walk enters open content -- then nothing can be proven and the
    caller must treat the path as satisfiable with unknown results.
    """
    finals: Set[str] = set()
    seen: Set[Tuple[str, FrozenSet[int]]] = set()
    stack: List[Tuple[str, FrozenSet[int]]] = []

    def push_children(label: str, states: FrozenSet[int]) -> bool:
        """Expand one (label, frontier) configuration; returns False
        on open content (analysis must give up)."""
        kids = graph.child_labels(label)
        if kids is None:
            return False
        for kid in kids:
            nxt = nfa.step(states, kid)
            if not nxt:
                continue
            if nfa.is_accepting(nxt):
                finals.add(kid)
            key = (kid, nxt)
            if key not in seen:
                seen.add(key)
                stack.append(key)
        return True

    for label in start_labels:
        if not push_children(label, nfa.start_states):
            return None
    while stack:
        label, states = stack.pop()
        if not push_children(label, states):
            return None
    return frozenset(finals)


def static_truth(predicate: Predicate) -> Optional[bool]:
    """Tri-state static evaluation of a predicate.

    ``True``/``False`` when the verdict holds for *every* binding
    (constant comparisons, contradictory equality constraints inside a
    conjunction), ``None`` when it depends on the data.
    """
    if isinstance(predicate, TruePredicate):
        return True
    if isinstance(predicate, Comparison):
        if isinstance(predicate.left, Const) \
                and isinstance(predicate.right, Const):
            return compare_values(str(predicate.left.value),
                                  predicate.op,
                                  str(predicate.right.value))
        return None
    if isinstance(predicate, Not):
        inner = static_truth(predicate.inner)
        return None if inner is None else not inner
    if isinstance(predicate, And):
        verdicts = [static_truth(p) for p in predicate.parts]
        if any(v is False for v in verdicts):
            return False
        if _contradictory_equalities(predicate):
            return False
        if all(v is True for v in verdicts):
            return True
        return None
    if isinstance(predicate, Or):
        verdicts = [static_truth(p) for p in predicate.parts]
        if any(v is True for v in verdicts):
            return True
        if all(v is False for v in verdicts):
            return False
        return None
    return None


def _contradictory_equalities(conjunction: And) -> bool:
    """$V = c1 AND $V = c2 with c1 != c2 can never hold."""
    pinned: Dict[str, str] = {}
    for part in conjunction.parts:
        if not isinstance(part, Comparison) or part.op != "=":
            continue
        var, const = None, None
        if isinstance(part.left, Var) and isinstance(part.right, Const):
            var, const = part.left.name, str(part.right.value)
        elif isinstance(part.right, Var) \
                and isinstance(part.left, Const):
            var, const = part.right.name, str(part.left.value)
        if var is None or const is None:
            continue
        if var in pinned and not compare_values(pinned[var], "=",
                                                const):
            return True
        pinned.setdefault(var, const)
    return False


def schema_pass(plan: ops.Operator,
                schemas: Optional[Mapping[str, SchemaSpec]] = None
                ) -> List[Finding]:
    graphs: Dict[str, SchemaGraph] = {
        url: SchemaGraph.coerce(spec)
        for url, spec in (schemas or {}).items()}
    findings: List[Finding] = []
    env: Dict[int, Dict[str, _Prov]] = {}

    def infer(node: ops.Operator, path: str) -> Dict[str, _Prov]:
        merged: Dict[str, _Prov] = {}
        for index, child in enumerate(node.inputs):
            child_path = ("%s.%d" % (path, index)) if path \
                else str(index)
            merged.update(infer(child, child_path))
        out = dict(merged)

        if isinstance(node, ops.Source):
            graph = graphs.get(node.url)
            out[node.out_var] = (
                (graph, frozenset({graph.root})) if graph is not None
                else _OPEN)
        elif isinstance(node, ops.GetDescendants):
            out[node.out_var] = _descend(node, path, merged)
        elif isinstance(node, ops.Constant):
            out[node.out_var] = (None, frozenset({node.value.label}))
        elif isinstance(node, ops.GroupBy):
            for in_var, out_var in node.aggregations:
                # members of the collected list are the in_var values
                out[out_var] = merged.get(in_var, _OPEN)
        elif isinstance(node, ops.Concatenate):
            labels: Optional[Set[str]] = set()
            graph: Optional[SchemaGraph] = None
            for in_var in node.in_vars:
                g, ls = merged.get(in_var, _OPEN)
                if ls is None or labels is None:
                    labels = None
                else:
                    labels.update(ls)
                graph = graph or g
            out[node.out_var] = (
                graph, frozenset(labels) if labels is not None
                else None)
        elif isinstance(node, ops.CreateElement):
            label = node.label_const
            out[node.out_var] = (
                (None, frozenset({label})) if label is not None
                else _OPEN)
        elif isinstance(node, ops.Rename):
            for old, new in node.mapping.items():
                if old in out:
                    out[new] = out.pop(old)
        elif isinstance(node, ops.Select):
            _check_select(node, path, merged)
        elif isinstance(node, ops.Join):
            _check_join(node, path, merged)

        env[id(node)] = out
        return out

    def _descend(node: ops.GetDescendants, path: str,
                 scope: Dict[str, _Prov]) -> _Prov:
        graph, labels = scope.get(node.parent_var, _OPEN)
        nfa = PathNFA(node.path)
        if graph is None or labels is None:
            return (graph, nfa.final_labels())
        if not labels:
            # the parent's provenance is already proven empty -- the
            # S010 was reported where it became empty; don't cascade
            return (graph, frozenset())
        finals = _reachable_finals(nfa, graph, labels)
        if finals is None:  # open content reached: unknown
            return (graph, nfa.final_labels())
        mentioned = _path_labels(node.path)
        typos = {label: difflib.get_close_matches(label,
                                                  sorted(graph.labels),
                                                  n=1)
                 for label in mentioned if label not in graph.labels}
        if not finals:
            hints = "; ".join(
                "did you mean %r instead of %r?" % (close[0], label)
                for label, close in sorted(typos.items()) if close)
            findings.append(Finding(
                "S010",
                "path %s matches nothing below %s in the schema of "
                "the %s source%s" % (
                    node.path,
                    "/".join("<%s>" % l for l in sorted(labels)),
                    _source_of(scope, node.parent_var),
                    " (%s)" % hints if hints else ""),
                node_path=path, signature=node.signature(),
                data={"path": str(node.path),
                      "start_labels": sorted(labels),
                      "suggestions": {label: close[0]
                                      for label, close
                                      in typos.items() if close}}))
            return (graph, frozenset())
        for label, close in sorted(typos.items()):
            if close:
                findings.append(Finding(
                    "S011",
                    "label %r does not occur in the source schema; "
                    "did you mean %r?" % (label, close[0]),
                    node_path=path, signature=node.signature(),
                    data={"label": label, "suggestion": close[0]}))
        return (graph, finals)

    def _source_of(scope: Dict[str, _Prov], var: str) -> str:
        graph, _ = scope.get(var, _OPEN)
        return "<%s>-rooted" % graph.root if graph else "unknown"

    def _check_select(node: ops.Select, path: str,
                      scope: Dict[str, _Prov]) -> None:
        verdict = static_truth(node.predicate)
        if verdict is False:
            findings.append(Finding(
                "S020",
                "predicate %s is statically false: this select "
                "discards every binding" % node.predicate,
                node_path=path, signature=node.signature(),
                data={"predicate": str(node.predicate),
                      "verdict": "false"}))
        elif verdict is True \
                and not isinstance(node.predicate, TruePredicate):
            findings.append(Finding(
                "S020",
                "predicate %s is statically true: this select "
                "filters nothing" % node.predicate,
                node_path=path, signature=node.signature(),
                data={"predicate": str(node.predicate),
                      "verdict": "true"}))

    def _check_join(node: ops.Join, path: str,
                    scope: Dict[str, _Prov]) -> None:
        if static_truth(node.predicate) is False:
            findings.append(Finding(
                "S021",
                "join predicate %s is statically false: the join is "
                "always empty" % node.predicate,
                node_path=path, signature=node.signature(),
                data={"predicate": str(node.predicate)}))
            return
        for var in sorted(node.predicate.variables()):
            _, labels = scope.get(var, _OPEN)
            if labels is not None and not labels:
                findings.append(Finding(
                    "S021",
                    "join key $%s can never bind: its provenance "
                    "path is unsatisfiable, so the join is always "
                    "empty" % var,
                    node_path=path, signature=node.signature(),
                    data={"variable": var}))

    infer(plan, "")
    return findings
