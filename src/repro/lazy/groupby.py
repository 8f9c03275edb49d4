"""The lazy ``groupBy`` operator (paper Figure 10, Example 8).

One output binding per distinct group-by key, in first-occurrence
order.  Navigating to the *next* output binding scans the input for a
binding whose key is not in ``G_prev`` -- the set of previously
encountered group-by lists (the ``next_gb`` function of Figure 10).
Navigating to the next *member* of a grouped ``list[...]`` value scans
the input for the next binding with the *same* key (Figure 10's
``next(p_b, p_g)``).

The paper stores ``G_prev`` and the discovered members in a buffer and
references it from node-ids; we realize that as operator state: a
global input scan (positions are stable, so node-ids embed scan
positions), plus a key memo that ``cache_enabled`` toggles -- with the
cache off, every membership test honestly recomputes the key by
navigating the key value again.

The empty-key group ``groupBy{}`` always yields exactly one output
binding, even over empty input (this realizes XMAS's ``<answer>
... </answer> {}``).

The operator mints two value ids, told apart by length: ``(owner,
group, aggregation)`` for a grouped list and ``(owner, group,
aggregation, position)`` for one member of it, the member's value
re-rooted so that its right sibling is the next member.  Below a
member, and for the group-by variables, the ids are the input's own.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence, Tuple

from ..runtime.cache import MISS
from ..runtime.context import ExecutionContext
from .base import LazyError, LazyOperator

__all__ = ["LazyGroupBy"]


class LazyGroupBy(LazyOperator):
    """Lazy groupBy per Figure 10; see the module docstring for the
    G_prev/scan design."""

    def __init__(self, child: LazyOperator,
                 group_vars: Sequence[str],
                 aggregations: Sequence[Tuple[str, str]],
                 context: Optional[ExecutionContext] = None):
        super().__init__(context)
        self.child = child
        self.group_vars = list(group_vars)
        self.aggregations = [tuple(a) for a in aggregations]
        self.variables = self.group_vars + [o for _, o in self.aggregations]

        #: input bindings scanned so far, in input order
        self._scanned: List[object] = []
        self._exhausted = False
        #: memoized keys by scan position -- a pure memo (re-derivable
        #: by re-navigating the key value), hence evictable
        self._keys = self.ctx.caches.cache("groupBy.keys")
        #: G_prev (Figure 10): key -> group index.  Group identity is
        #: evaluation state the node-ids depend on, so the registry is
        #: kind="state": always on, never evicted, but visible in the
        #: cache report (its hits are next_gb's membership re-tests).
        self._gprev = self.ctx.caches.cache("groupBy.G_prev",
                                            kind="state")
        self._group_keys: List[Hashable] = []
        self._group_first_pos: List[int] = []

    # -- input scanning ------------------------------------------------------
    def _compute_key(self, ib) -> Hashable:
        key = []
        for var in self.group_vars:
            value = self.child.attribute(ib, var)
            key.append(value[0].v_key(value))
        return tuple(key)

    def _scan_one(self) -> bool:
        """Advance the global input scan by one binding; register any
        newly discovered group.  Returns False at exhaustion."""
        if self._exhausted:
            return False
        if self._scanned:
            ib = self.child.next_binding(self._scanned[-1])
        else:
            ib = self.child.first_binding()
        if ib is None:
            self._exhausted = True
            return False
        self._scanned.append(ib)
        pos = len(self._scanned) - 1
        key = self._compute_key(self._scanned[pos])
        self._keys.put(pos, key)
        if self._gprev.get(key, MISS) is MISS:
            self._gprev.put(key, len(self._group_keys))
            self._group_keys.append(key)
            self._group_first_pos.append(pos)
        return True

    def _ensure_group(self, index: int) -> bool:
        """Scan until group ``index`` is known (or input exhausted)."""
        while len(self._group_keys) <= index:
            if not self._scan_one():
                return False
        return True

    # -- bindings ------------------------------------------------------------
    def first_binding(self):
        if not self.group_vars:
            # groupBy{}: the single empty group exists even when the
            # input is empty -- and needs no input scan to assert, so
            # the constant structure above it (e.g. the answer
            # element's label) stays free of source access.
            return ("b", 0)
        if self._ensure_group(0):
            return ("b", 0)
        return None

    def next_binding(self, binding):
        if not self.group_vars:
            return None  # the empty key admits exactly one group
        index = binding[1] + 1
        if self._ensure_group(index):
            return ("b", index)
        return None

    # -- attributes ------------------------------------------------------------
    def attribute(self, binding, var):
        index = binding[1]
        if var in self.group_vars:
            witness = self._scanned[self._group_first_pos[index]]
            return self.child.attribute(witness, var)
        for agg_index, (_in_var, out_var) in enumerate(self.aggregations):
            if var == out_var:
                return (self.spanned or self, index, agg_index)
        raise LazyError("operator %s has no variable $%s" % (self, var))

    # -- member scanning -------------------------------------------------------
    def _next_member_pos(self, group_index: int,
                         from_pos: int) -> Optional[int]:
        """First scan position >= from_pos whose key equals the group's
        key (scanning further input on demand)."""
        keyed = bool(self.group_vars)
        if keyed and group_index >= len(self._group_keys):
            return None
        key = (self._group_keys[group_index]
               if group_index < len(self._group_keys) else None)
        scanned, memo = self._scanned, self._keys
        pos = from_pos
        while True:
            while pos >= len(scanned):
                if not self._scan_one():
                    return None
            if not keyed:
                return pos  # groupBy{}: every binding is a member
            here = memo.get(pos, MISS)
            if here is MISS:
                here = self._compute_key(scanned[pos])
                memo.put(pos, here)
            if here == key:
                return pos
            pos += 1

    # -- values (own ids only; v_select is the protocol's scan) ---------------
    def v_down(self, value):
        if len(value) == 3:  # the list: down to its first member
            owner, group_index, agg_index = value
            pos = self._next_member_pos(group_index, 0)
            if pos is None:
                return None
            return (owner, group_index, agg_index, pos)
        _, _g, agg_index, pos = value
        inner = self.child.attribute(self._scanned[pos],
                                     self.aggregations[agg_index][0])
        return inner[0].v_down(inner)

    def v_right(self, value):
        if len(value) == 3:
            return None  # a grouped list is a value root
        owner, group_index, agg_index, pos = value
        nxt = self._next_member_pos(group_index, pos + 1)
        if nxt is None:
            return None
        return (owner, group_index, agg_index, nxt)

    def v_fetch(self, value):
        if len(value) == 3:
            return "list"
        _, _g, agg_index, pos = value
        inner = self.child.attribute(self._scanned[pos],
                                     self.aggregations[agg_index][0])
        return inner[0].v_fetch(inner)
