"""Lazy set/list operators: union, difference, distinct.

* ``union`` is fully lazy: left bindings first, then right; its value
  ids are the sides' own.
* ``difference`` must know the complete right side before emitting
  anything (value-level anti-join) -- unbrowsable on its right input.
* ``distinct`` is browsable: it streams the left input, skipping
  bindings whose canonical value key was already seen (the seen-set is
  the operator's cache, grown as the client navigates).
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..runtime.cache import MISS
from ..runtime.context import ExecutionContext
from .base import FilterOperator, LazyOperator, canonical_key_of

__all__ = ["LazyUnion", "LazyDifference", "LazyDistinct"]


class LazyUnion(LazyOperator):
    """Left bindings followed by right bindings (same schema); a
    value id is the one its side hands out."""

    def __init__(self, left: LazyOperator, right: LazyOperator,
                 context: Optional[ExecutionContext] = None):
        super().__init__(context)
        self.left = left
        self.right = right
        self.variables = list(left.variables)

    def first_binding(self):
        lb = self.left.first_binding()
        if lb is not None:
            return ("L", lb)
        rb = self.right.first_binding()
        return ("R", rb) if rb is not None else None

    def next_binding(self, binding):
        side, ib = binding
        if side == "L":
            nxt = self.left.next_binding(ib)
            if nxt is not None:
                return ("L", nxt)
            rb = self.right.first_binding()
            return ("R", rb) if rb is not None else None
        nxt = self.right.next_binding(ib)
        return ("R", nxt) if nxt is not None else None

    def attribute(self, binding, var):
        side, ib = binding
        op = self.left if side == "L" else self.right
        return op.attribute(ib, var)


def _binding_key(op: LazyOperator, ib, variables):
    """The whole binding ``ib`` of ``op`` as one canonical key."""
    return tuple(canonical_key_of(op.attribute(ib, var))
                 for var in variables)


class LazyDifference(FilterOperator):
    """Left bindings whose values do not occur on the right."""

    def __init__(self, left: LazyOperator, right: LazyOperator,
                 context: Optional[ExecutionContext] = None):
        super().__init__(left, context)
        self.right = right
        #: one-entry memo holding the full right-side key set
        self._right_keys = self.ctx.caches.cache("difference.right_keys")

    def _force_right(self) -> Set:
        keys = self._right_keys.get("keys", MISS)
        if keys is not MISS:
            return keys
        keys = set()
        rb = self.right.first_binding()
        while rb is not None:
            keys.add(_binding_key(self.right, rb, self.variables))
            rb = self.right.next_binding(rb)
        self._right_keys.put("keys", keys)
        return keys

    def _keep(self, ib) -> bool:
        return _binding_key(self.child, ib, self.variables) \
            not in self._force_right()


class LazyDistinct(FilterOperator):
    """First occurrence of each distinct value combination survives.

    The seen-set grows monotonically with client progress; node-ids
    embed only the input binding id, so the set can be reconstructed by
    re-scanning when caching is disabled.
    """

    def __init__(self, child: LazyOperator,
                 context: Optional[ExecutionContext] = None):
        super().__init__(child, context)
        # Order-dependent: evicting individual pairs could re-admit a
        # key, so this stays a toggleable in-operator list rather than
        # a budgeted memo cache.
        self._seen_upto: List = []  # (ib, key) pairs in input order

    def _keep(self, ib) -> bool:
        key = _binding_key(self.child, ib, self.variables)
        if self.cache_enabled:
            for _ib, seen_key in self._seen_upto:
                if _ib == ib:
                    return True  # already classified as a keeper
            for _ib, seen_key in self._seen_upto:
                if seen_key == key:
                    return False
            self._seen_upto.append((ib, key))
            return True
        # Cache off: re-derive "seen before ib" by scanning the input
        # from the start up to (excluding) ib.
        scan = self.child.first_binding()
        while scan is not None and scan != ib:
            if _binding_key(self.child, scan, self.variables) == key:
                return False
            scan = self.child.next_binding(scan)
        return True
