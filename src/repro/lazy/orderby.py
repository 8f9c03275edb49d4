"""The lazy ``orderBy`` operator -- the canonically *unbrowsable* one.

"the mediator cannot respond to the user until it has seen the
complete list of age elements" (paper Example 1).  Accordingly, the
first binding-level navigation forces a full scan of the input: every
input binding is visited and its sort-key text materialized.  After
that one eager step, navigation proceeds lazily over the sorted order.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..algebra.eager import sort_key_for_value
from ..runtime.cache import MISS
from ..runtime.context import ExecutionContext
from .base import LazyOperator, UnaryOperator, value_text_of

__all__ = ["LazyOrderBy"]


class LazyOrderBy(UnaryOperator):
    """Lazy orderBy: the canonically unbrowsable operator; see the
    module docstring."""

    def __init__(self, child: LazyOperator, variables: Sequence[str],
                 descending: bool = False,
                 context: Optional[ExecutionContext] = None):
        super().__init__(child, context)
        self.sort_vars = list(variables)
        self.descending = descending
        #: one-entry memo holding the sorted binding order; the sort
        #: is deterministic, so re-deriving it after eviction yields
        #: the same positions and node-ids stay valid
        self._order_cache = self.ctx.caches.cache("orderBy.order")

    def _force(self) -> List[object]:
        """Scan the whole input and sort -- the unavoidable eager step."""
        order = self._order_cache.get("order", MISS)
        if order is not MISS:
            return order
        entries: List[Tuple[tuple, int, object]] = []
        ib = self.child.first_binding()
        position = 0
        while ib is not None:
            key = tuple(
                sort_key_for_value(value_text_of(
                    self.child.attribute(ib, var)))
                for var in self.sort_vars
            )
            entries.append((key, position, ib))
            ib = self.child.next_binding(ib)
            position += 1
        entries.sort(key=lambda e: e[0], reverse=self.descending)
        order = [ib for _key, _pos, ib in entries]
        self._order_cache.put("order", order)
        return order

    # -- bindings -----------------------------------------------------------
    def first_binding(self):
        order = self._force()
        return ("b", 0) if order else None

    def next_binding(self, binding):
        order = self._force()
        index = binding[1] + 1
        return ("b", index) if index < len(order) else None

    # -- attributes (the input's value ids: the pass-through shape) --------
    # The binding ids are positions, not the input's: orderBy answers
    # for itself, then routes the input binding it holds.
    route = LazyOperator.route

    def attribute(self, binding, var):
        return UnaryOperator.attribute(self, self._force()[binding[1]],
                                       var)
