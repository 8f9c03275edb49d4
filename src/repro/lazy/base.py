"""The lazy-mediator protocol: operators as navigation transducers.

Each XMAS algebra operator is implemented as a *lazy mediator* (paper
Section 3 and Appendix A): it accepts navigation commands on its
*output* binding-list tree ``bs[b[...], ...]`` and, per command, issues
the minimal navigation against its input operator(s), combining the
answers.

Following Appendix A, the inter-operator interface is DOM-VXD *plus
direct attribute access*: "Since the client of the lazy mediator ... is
another lazy mediator, it is wasteful to navigate over the attribute
lists of the input mediator.  Instead we allow the operators to
directly request values of attributes."  Hence the protocol:

binding level (the ``bs``/``b`` nodes)
    ``first_binding()``, ``next_binding(b)``, ``attribute(b, var)``;
    ``route(var)`` names the call that answers ``b.var``, so a parent
    resolves once, at build time, which operator binds ``var``

value level (the subtrees bound to variables)
    ``v_down(v)``, ``v_right(v)``, ``v_fetch(v)``

Node-ids are structured tuples that *encode their associations*
Skolem-style (paper Figure 5 discussion): the mediator never keeps an
association table, so ids stay valid without client cooperation.
Operators do keep selected caches (recursive-path frontiers, join inner
attributes, groupBy's ``G_prev``), toggleable for the ablation
experiment.

A value id names its owner: element 0 is the operator that minted it
(or the :class:`~repro.lazy.observe.SpannedOperator` observing that
operator), the rest is that operator's own payload.  Every value
navigation goes straight there -- ``vid[0].v_down(vid)`` -- whichever
operator holds the id, so an operator's ``v_*`` methods see only the
ids it minted, and an operator that does not re-root a variable hands
out its input's id unchanged.

A value id handed out by ``attribute`` is the *root* of that binding's
value: ``v_right`` on it is None even when the underlying node has
siblings in the source -- the binding perspective detaches it.
"""

from __future__ import annotations

from typing import Hashable, List, Mapping, Optional

from ..navigation.interface import NavigableDocument
from ..runtime.context import ExecutionContext
from ..xtree.tree import Tree

__all__ = ["LazyOperator", "UnaryOperator", "FilterOperator",
           "BindingsDocument", "LazyError",
           "value_text_of", "canonical_key_of", "materialize_value"]

#: Opaque ids; concretely nested hashable tuples.
BindingId = Hashable
ValueId = Hashable


from ..errors import ReproError


class LazyError(ReproError):
    """Raised on protocol violations (bad ids, unknown variables)."""


class LazyOperator:
    """Base class of all lazy mediators.

    Subclasses mint their own binding/value ids and must treat ids of
    their inputs as opaque.  Every operator carries the query's
    :class:`~repro.runtime.context.ExecutionContext`; its config
    governs the operator's optional memoization (the paper's operator
    caches), and its cache manager owns every cache the operator
    registers.
    """

    #: output variable schema, in order
    variables: List[str] = []
    #: the ``Kind#N`` build-order name the plan builder gives the
    #: operator (None when built by hand); it is also the repr, so a
    #: printed value id reads the same in every run
    name: Optional[str] = None

    def __init__(self, context: Optional[ExecutionContext] = None):
        self.ctx = (context if context is not None
                    else ExecutionContext.create())
        #: whether the paper's operator caches are on -- read from the
        #: (frozen) config once, not per navigation
        self.cache_enabled: bool = self.ctx.config.cache_enabled
        #: the SpannedOperator observing this operator, if any: the
        #: value ids it mints then name the proxy, not the operator.
        #: A root id names ``self.spanned or self``; an id derived from
        #: an own id copies that id's owner.  An unobserved operator
        #: never points at itself, so its plan is freed by reference
        #: counting when the query is dropped.
        self.spanned: Optional[LazyOperator] = None

    def __repr__(self) -> str:
        return self.name or type(self).__name__

    # -- binding-level navigation ----------------------------------------
    def first_binding(self) -> Optional[BindingId]:
        """The first output binding (d on the ``bs`` node)."""
        raise NotImplementedError

    def next_binding(self, binding: BindingId) -> Optional[BindingId]:
        """The next output binding (r on a ``b`` node)."""
        raise NotImplementedError

    def attribute(self, binding: BindingId, var: str) -> ValueId:
        """Direct access ``b.X``: the root value id of ``var``."""
        raise NotImplementedError

    def route(self, var: str):
        """``(attribute, name)``: the call that answers ``b.var`` for
        this operator's binding ids -- ``attribute(b, name)``.

        An operator that binds ``var``, or whose binding ids are its
        own, answers for itself.  A pass-through shape hands out its
        input's binding ids, so it answers with the route its input
        gave (see :class:`UnaryOperator`).
        """
        return (self.attribute, var)

    # -- value-level navigation --------------------------------------------
    # Called only with ids this operator minted (``value[0]`` is its
    # owner); the answers are ids of any operator.
    def v_down(self, value: ValueId) -> Optional[ValueId]:
        raise NotImplementedError

    def v_right(self, value: ValueId) -> Optional[ValueId]:
        raise NotImplementedError

    def v_fetch(self, value: ValueId) -> str:
        raise NotImplementedError

    def v_select(self, value: ValueId, predicate) -> Optional[ValueId]:
        """``select(sigma)`` at the value level: the first sibling to
        the right of ``value`` whose label satisfies ``predicate``.

        The default implementation scans with ``v_right``/``v_fetch``
        (same cost as the client doing it); operators that can push
        the selection to a capable source override it --
        :class:`~repro.lazy.source.LazySource` forwards it as a single
        source command, which is what makes label-filtering views
        bounded browsable (paper Example 1).
        """
        from ..navigation.commands import label_is
        sibling = value[0].v_right(value)
        while sibling is not None:
            owner = sibling[0]
            if label_is(predicate, owner.v_fetch(sibling)):
                return sibling
            sibling = owner.v_right(sibling)
        return None

    # -- whole-value walks ---------------------------------------------------
    # Called, like the v_* above, only with own ids.  Both walk the
    # value through each node's owner, node by node; an operator that
    # can walk its own ids for less Python overrides them, issuing the
    # same commands to its sources in the same order.  Loops, not
    # recursion: a recursive closure per walk would be a reference
    # cycle per walk.
    def v_text(self, value: ValueId) -> str:
        """The text of ``value``: a leaf's label, else its leaf
        descendants' labels concatenated in document order."""
        parts: List[str] = []
        node = value
        # the nodes entered below ``value``; each is stepped right
        # once its subtree is done
        path: List[ValueId] = []
        while True:
            child = node[0].v_down(node)
            if child is not None:
                path.append(child)
                node = child
                continue
            parts.append(node[0].v_fetch(node))
            while path:
                done = path.pop()
                node = done[0].v_right(done)
                if node is not None:
                    path.append(node)
                    break
            else:
                return "".join(parts)

    def v_key(self, value: ValueId) -> Hashable:
        """The canonical structural key of ``value``: a leaf's label,
        else ``(label, (child keys...))``."""
        # one frame per open node: (label, child keys, node id)
        frames: list = []
        node = value
        while True:
            owner = node[0]
            label = owner.v_fetch(node)
            child = owner.v_down(node)
            if child is not None:
                frames.append((label, [], node))
                node = child
                continue
            key: Hashable = label
            while frames:
                frames[-1][1].append(key)
                sibling = node[0].v_right(node)
                if sibling is not None:
                    node = sibling
                    break
                label, keys, node = frames.pop()
                key = (label, tuple(keys))
            else:
                return key

    # -- helpers -----------------------------------------------------------
    def _check_var(self, var: str) -> None:
        if var not in self.variables:
            raise LazyError(
                "operator %s has no variable $%s" % (self, var)
            )


# ----------------------------------------------------------------------
# The shared shapes: what an operator inherits instead of restating
# ----------------------------------------------------------------------
# Most operators change the binding level and hand out their input's
# value ids unchanged.  The untouched binding level is written here,
# once; an operator module then shows only its own Figure 9 mappings.
# There is no value-level shape to share: a value navigation goes to
# the id's owner, never through the operators above it.

class UnaryOperator(LazyOperator):
    """The pass-through shape: one input whose binding ids are the
    output's, id for id.

    ``routes`` maps each output variable, in schema order, to the
    input variable it shows (default: every input variable under its
    own name).  ``project`` is this shape over the kept variables,
    ``rename`` over the renamed keys; :class:`FilterOperator` adds a
    survival test.  ``constant`` / ``createElement`` /
    ``concatenate`` answer their own variable first, then use the
    table.

    The route rule: ``b.X`` goes straight to the operator that binds
    ``X``.  The table is built once, from the input's :meth:`route`,
    so a chain of pass-through shapes collapses to that operator and
    ``attribute`` costs one lookup and one call to it.  Two
    exceptions answer for themselves (the default
    :meth:`LazyOperator.route`): ``orderBy``, whose binding ids are
    positions, and a :class:`~repro.lazy.observe.SpannedOperator`,
    which must see every call it observes.
    """

    def __init__(self, child: LazyOperator,
                 context: Optional[ExecutionContext] = None,
                 routes: Optional[Mapping[str, str]] = None):
        super().__init__(context)
        self.child = child
        if routes is None:
            routes = {var: var for var in child.variables}
        self.variables = list(routes)
        self._routes = {out: child.route(var)
                        for out, var in routes.items()}

    def first_binding(self):
        return self.child.first_binding()

    def next_binding(self, binding):
        return self.child.next_binding(binding)

    def attribute(self, binding, var):
        try:
            attribute, name = self._routes[var]
        except KeyError:
            raise LazyError("operator %s has no variable $%s"
                            % (self, var)) from None
        return attribute(binding, name)

    def route(self, var):
        # a variable the table lacks is the operator's own
        return self._routes.get(var, (self.attribute, var))


class FilterOperator(UnaryOperator):
    """The filter shape: stream the input and decide, per binding,
    whether it survives (:meth:`_keep`).

    Binding and value ids are the input's, unchanged, so ``b.X`` is
    routed as for any pass-through shape.  ``select``, ``distinct``
    and ``difference`` (over its left input) differ only in
    ``_keep``.
    """

    def _keep(self, ib) -> bool:
        raise NotImplementedError

    def _scan(self, ib):
        while ib is not None:
            if self._keep(ib):
                return ib
            ib = self.child.next_binding(ib)
        return None

    def first_binding(self):
        return self._scan(self.child.first_binding())

    def next_binding(self, binding):
        return self._scan(self.child.next_binding(binding))


# ----------------------------------------------------------------------
# Value utilities (used by predicates, grouping, ordering)
# ----------------------------------------------------------------------

def value_text_of(value: ValueId) -> str:
    """The comparison text of a value: the label of a leaf, else the
    concatenated text of its leaf descendants.

    Costs navigations proportional to the value's size -- which is the
    honest price of predicates over structured values; the common case
    (variables bound to text leaves via ``zip._``) costs one fetch.
    The walk is the value owner's :meth:`LazyOperator.v_text`.
    """
    return value[0].v_text(value)


def canonical_key_of(value: ValueId) -> Hashable:
    """Materialize a value into a canonical structural key (the
    counterpart of :func:`repro.algebra.bindings.value_key`).

    Grouping and duplicate elimination compare whole values, so this
    walks the entire value subtree -- the source of groupBy's
    navigational cost.  The walk is the value owner's
    :meth:`LazyOperator.v_key`.
    """
    return value[0].v_key(value)


def materialize_value(value: ValueId) -> Tree:
    """Navigate a value subtree into an in-memory Tree (testing aid)."""
    owner = value[0]
    label = owner.v_fetch(value)
    children = []
    child = owner.v_down(value)
    while child is not None:
        children.append(materialize_value(child))
        child = child[0].v_right(child)
    return Tree(label, children)


# ----------------------------------------------------------------------
# The bs-tree adapter
# ----------------------------------------------------------------------

class BindingsDocument(NavigableDocument):
    """Expose a lazy operator's full output tree ``bs[b[X[x],...],...]``
    through plain DOM-VXD.

    This is what a client sees when it queries for bindings rather than
    a constructed document, and it is the test oracle's window: for any
    plan, ``materialize(BindingsDocument(lazy_op))`` must equal
    ``evaluate_bindings(plan, sources).to_tree()``.

    Pointers::

        ("bs",)                       the root
        ("b", bid)                    a binding node
        ("var", bid, index)           a variable node  X[...]
        ("val", vid)                  a value node (sent to its owner)
    """

    def __init__(self, op: LazyOperator):
        self.op = op

    def root(self):
        return ("bs",)

    def down(self, pointer):
        tag = pointer[0]
        if tag == "bs":
            bid = self.op.first_binding()
            return ("b", bid) if bid is not None else None
        if tag == "b":
            if not self.op.variables:
                return None
            return ("var", pointer[1], 0)
        if tag == "var":
            _, bid, index = pointer
            vid = self.op.attribute(bid, self.op.variables[index])
            return ("val", vid)
        if tag == "val":
            vid = pointer[1]
            child = vid[0].v_down(vid)
            return ("val", child) if child is not None else None
        raise LazyError("bad pointer %r" % (pointer,))

    def right(self, pointer):
        tag = pointer[0]
        if tag == "bs":
            return None
        if tag == "b":
            nxt = self.op.next_binding(pointer[1])
            return ("b", nxt) if nxt is not None else None
        if tag == "var":
            _, bid, index = pointer
            if index + 1 < len(self.op.variables):
                return ("var", bid, index + 1)
            return None
        if tag == "val":
            vid = pointer[1]
            sibling = vid[0].v_right(vid)
            return ("val", sibling) if sibling is not None else None
        raise LazyError("bad pointer %r" % (pointer,))

    def fetch(self, pointer):
        tag = pointer[0]
        if tag == "bs":
            return "bs"
        if tag == "b":
            return "b"
        if tag == "var":
            return self.op.variables[pointer[2]]
        if tag == "val":
            vid = pointer[1]
            return vid[0].v_fetch(vid)
        raise LazyError("bad pointer %r" % (pointer,))
