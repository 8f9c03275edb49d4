"""The lazy nested-loop ``join`` (and product).

Output order is left-major: for each left binding, all matching right
bindings in order.  Each advance re-scans the inner (right) input; the
*inner cache* -- "the nested-loops join operator stores the parts of
the inner argument of the loop ... the 'binding' nodes along with the
attributes that participate in the join condition" (paper Section 3,
footnote 9) -- memoizes the right binding ids and their join-attribute
texts, so re-scans stop costing source navigations once warmed.

The join mints no value ids: ``b.X`` is the id the side holding ``X``
hands out, and value navigation goes straight to that id's owner.
"""

from __future__ import annotations

import weakref
from typing import Optional

from ..algebra.predicates import Predicate
from ..runtime.cache import MISS
from ..runtime.context import ExecutionContext
from .base import LazyOperator

__all__ = ["LazyJoin"]


class LazyJoin(LazyOperator):
    """Lazy nested-loop join; see the module docstring for the inner
    cache design."""

    def __init__(self, left: LazyOperator, right: LazyOperator,
                 predicate: Predicate,
                 context: Optional[ExecutionContext] = None):
        super().__init__(context)
        self.left = left
        self.right = right
        self.predicate = predicate
        self.variables = left.variables + right.variables
        self._left_vars = set(left.variables)
        #: inner cache (paper footnote 9): position -> right binding id,
        #: and (position, var) -> join-attribute text.  Both are memos
        #: over stable scan positions -- evicted entries are re-derived
        #: by resuming the inner scan from the nearest cached
        #: predecessor (or, with caching off, honestly from the start).
        self._inner_bindings = self.ctx.caches.cache("join.inner")
        self._inner_texts = self.ctx.caches.cache("join.inner_texts")
        #: scan length once discovered (scalar bookkeeping, only
        #: trusted while caching is on -- the cache-off ablation mode
        #: re-pays the full discovery walk, as before)
        self._inner_len: Optional[int] = None
        #: the predicate, lowered once: ``test((lb, right_index,
        #: memo))`` over text getters that already know which side
        #: holds their variable
        self._test = predicate.compile(self._getter)

    # -- inner-side access (cached) ----------------------------------------
    def _inner_binding(self, index: int):
        """The right binding id at inner position ``index`` (None past
        the end).

        With caching on, binding ids are memoized by position; a
        missing position (never visited, or evicted under a cache
        budget) is re-derived by walking forward from the nearest
        cached predecessor.  With caching off every access honestly
        re-walks the inner side from its first binding, re-paying the
        underlying source navigations -- the cost the paper's inner
        cache exists to avoid.
        """
        if self._inner_len is not None and index >= self._inner_len:
            return None
        rb = self._inner_bindings.get(index, MISS)
        if rb is not MISS:
            return rb
        return self._walk_inner_to(index)

    def _walk_inner_to(self, index: int):
        """:meth:`_inner_binding` past its memo: walk the inner side
        forward to ``index``, memoizing every position crossed."""
        # Resume from the nearest cached predecessor position.
        position = index - 1
        rb = MISS
        while position >= 0:
            rb = self._inner_bindings.peek(position, MISS)
            if rb is not MISS:
                break
            position -= 1
        if rb is MISS:
            position = 0
            rb = self.right.first_binding()
            if rb is None:
                if self.cache_enabled:
                    self._inner_len = 0
                return None
            self._inner_bindings.put(position, rb)
        while position < index:
            rb = self.right.next_binding(rb)
            position += 1
            if rb is None:
                if self.cache_enabled:
                    self._inner_len = position
                return None
            self._inner_bindings.put(position, rb)
        return rb

    # -- the join condition ------------------------------------------------
    # One test's ``env`` is ``(lb, right_index, memo)``; ``memo`` holds
    # the left texts already read during *this* test, so a left
    # variable mentioned twice is navigated once per test (and again
    # for the next inner position: the texts are not kept across
    # tests).
    def _getter(self, var: str):
        if var in self._left_vars:
            return self._left_getter(var)
        return self._right_getter(var)

    def _left_getter(self, var: str):
        attribute = self.left.attribute

        def left_text(env) -> str:
            memo = env[2]
            text = memo.get(var)
            if text is None:
                value = attribute(env[0], var)
                text = memo[var] = value[0].v_text(value)
            return text

        return left_text

    def _right_getter(self, var: str):
        attribute = self.right.attribute
        texts = self._inner_texts
        # The join keeps this closure (in ``_test``): a strong reference
        # back would leave a finished query's plan in a cycle.
        join = weakref.proxy(self)

        def right_text(env) -> str:
            key = (env[1], var)
            text = texts.get(key, MISS)
            if text is MISS:
                value = attribute(join._inner_binding(env[1]), var)
                text = value[0].v_text(value)
                texts.put(key, text)
            return text

        return right_text

    # -- the nested loop -----------------------------------------------------
    def _scan(self, lb, right_index: int):
        """First output at/after (lb, right_index), left-major."""
        probe, test = self._inner_bindings.get, self._test
        while lb is not None:
            while True:
                # _inner_binding(right_index), its memo hit inline
                if self._inner_len is not None \
                        and right_index >= self._inner_len:
                    break
                if probe(right_index, MISS) is MISS \
                        and self._walk_inner_to(right_index) is None:
                    break
                if test((lb, right_index, {})):
                    return ("b", lb, right_index)
                right_index += 1
            lb = self.left.next_binding(lb)
            right_index = 0
        return None

    def first_binding(self):
        return self._scan(self.left.first_binding(), 0)

    def next_binding(self, binding):
        _, lb, right_index = binding
        return self._scan(lb, right_index + 1)

    # -- attributes: the sides' own value ids -------------------------------
    def attribute(self, binding, var):
        _, lb, right_index = binding
        if var in self._left_vars:
            return self.left.attribute(lb, var)
        return self.right.attribute(self._inner_binding(right_index), var)
