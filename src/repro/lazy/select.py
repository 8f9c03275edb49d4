"""The lazy ``select`` and ``constant`` operators.

``project`` and ``rename`` have no class of their own: they are the
pass-through shape (:class:`~repro.lazy.base.UnaryOperator`) with a
route map, built by :mod:`repro.lazy.build`.

``select`` scans the input binding list for bindings that satisfy the
predicate -- Example 1's *(unbounded) browsable* pattern: the cost of
the next binding depends on where the next satisfying binding sits in
the input.
"""

from __future__ import annotations

from typing import Optional

from ..algebra.predicates import Predicate
from ..runtime.cache import MISS
from ..runtime.context import ExecutionContext
from ..xtree.tree import Tree
from .base import FilterOperator, LazyOperator, UnaryOperator

__all__ = ["LazySelect", "LazyConstant"]


class LazySelect(FilterOperator):
    """``sigma_p``: bindings of the input satisfying ``p``.

    The filter shape (the input's binding and value ids) with the
    predicate as the survival test.  Predicate evaluation
    materializes only the text of the mentioned variables' values;
    per-binding verdicts are memoized when caching is on.
    """

    def __init__(self, child: LazyOperator, predicate: Predicate,
                 context: Optional[ExecutionContext] = None):
        super().__init__(child, context)
        self.predicate = predicate
        self._verdicts = self.ctx.caches.cache("select.verdicts")
        #: the predicate, lowered once: ``test(ib)``
        self._test = predicate.compile(self._getter)

    def _getter(self, var: str):
        attribute = self.child.attribute

        def text(ib) -> str:
            value = attribute(ib, var)
            return value[0].v_text(value)

        return text

    def _keep(self, ib) -> bool:
        verdict = self._verdicts.get(ib, MISS)
        if verdict is not MISS:
            return verdict
        verdict = self._test(ib)
        self._verdicts.put(ib, verdict)
        return verdict


class LazyConstant(UnaryOperator):
    """Extend each input binding with a fixed in-memory tree.

    The constant's value ids are ``(owner, path)``, where ``path`` is
    the child-index path from the tree's root to the node; every
    other variable's ids are the input's.
    """

    def __init__(self, child: LazyOperator, value: Tree, out_var: str,
                 context: Optional[ExecutionContext] = None):
        super().__init__(child, context)
        self.value = value
        self.out_var = out_var
        self.variables = child.variables + [out_var]

    def _node(self, path):
        node = self.value
        for index in path:
            node = node.child(index)
        return node

    def attribute(self, binding, var):
        if var == self.out_var:
            return (self.spanned or self, ())
        return UnaryOperator.attribute(self, binding, var)

    # -- values (own ids only; v_select is the protocol's scan) -----------
    def v_down(self, value):
        owner, path = value
        if self._node(path).is_leaf:
            return None
        return (owner, path + (0,))

    def v_right(self, value):
        owner, path = value
        if not path:
            return None  # the constant root is a value root
        parent = self._node(path[:-1])
        index = path[-1] + 1
        if index >= len(parent.children):
            return None
        return (owner, path[:-1] + (index,))

    def v_fetch(self, value):
        return self._node(value[1]).label
