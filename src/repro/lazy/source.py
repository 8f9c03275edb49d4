"""The lazy ``source`` operator: wrap a navigable source document as
the singleton binding list ``bs[b[v[root]]]``."""

from __future__ import annotations

from typing import Optional

from ..navigation.counting import NavCounters
from ..navigation.interface import NavigableDocument
from ..runtime.context import ExecutionContext
from .base import LazyOperator

__all__ = ["LazySource"]


class _Unheard:
    """The tracer of an unmetered source: never live."""

    active = False


class LazySource(LazyOperator):
    """``source_{url -> v}`` over a NavigableDocument.

    Value ids are ``(owner, pointer, is_root)``: the flag pins down
    that a binding's value root has no right sibling even if the
    underlying pointer does (it never does for a document root, but the
    invariant is kept uniform with the other operators).

    Over a source its context meters (a mediator's registered
    :class:`~repro.navigation.counting.CountingDocument`) the operator
    is the meter: it navigates the document inside the proxy, counts
    each ``d/r/f/select`` into the context's own counters, and fans
    out through the proxy's ``publish`` exactly where the proxy would
    -- asking inline, per command, whether the tracer listens.
    """

    def __init__(self, document: NavigableDocument, out_var: str,
                 context: Optional[ExecutionContext] = None):
        super().__init__(context)
        navs = self.ctx.navigations.get(document)
        if navs is None:
            navs = NavCounters()
            self._tracer = _Unheard
        else:
            self._tracer = document.tracer
            self._publish = document.publish
            document = document.inner
        self._navs = navs
        self.document = document
        self.out_var = out_var
        self.variables = [out_var]
        # The three per-step commands, bound once: every navigation
        # of the query ends in one of these calls.
        self._down = document.down
        self._right = document.right
        self._fetch = document.fetch

    # -- bindings ----------------------------------------------------------
    def first_binding(self):
        return ("b",)

    def next_binding(self, binding):
        return None

    def attribute(self, binding, var):
        self._check_var(var)
        return (self.spanned or self, self.document.root(), True)

    # -- values --------------------------------------------------------------
    def v_down(self, value):
        self._navs.down += 1
        if self._tracer.active:
            self._publish("d")
        child = self._down(value[1])
        return (value[0], child, False) if child is not None else None

    def v_right(self, value):
        if value[2]:
            return None
        self._navs.right += 1
        if self._tracer.active:
            self._publish("r")
        sibling = self._right(value[1])
        return (value[0], sibling, False) if sibling is not None else None

    def v_fetch(self, value):
        self._navs.fetch += 1
        if self._tracer.active:
            self._publish("f")
        return self._fetch(value[1])

    # The whole-value walks over the document itself: the commands,
    # their order and the counts are the generic walk's, without a
    # trip through v_down/v_right/v_fetch per node.  A listening
    # tracer needs each command published, so with one the generic
    # walk runs.
    def v_text(self, value):
        if self._tracer.active:
            return LazyOperator.v_text(self, value)
        navs, down, fetch = self._navs, self._down, self._fetch
        pointer = value[1]
        navs.down += 1
        child = down(pointer)
        if child is None:  # a text leaf: the common case
            navs.fetch += 1
            return fetch(pointer)
        right = self._right
        parts = []
        path = [child]  # the nodes entered below the value
        pointer = child
        while True:
            navs.down += 1
            child = down(pointer)
            if child is not None:
                path.append(child)
                pointer = child
                continue
            navs.fetch += 1
            parts.append(fetch(pointer))
            while path:
                navs.right += 1
                pointer = right(path.pop())
                if pointer is not None:
                    path.append(pointer)
                    break
            else:
                return "".join(parts)

    def v_key(self, value):
        if self._tracer.active:
            return LazyOperator.v_key(self, value)
        navs, down, right, fetch = \
            self._navs, self._down, self._right, self._fetch
        frames = []  # one per open node: (label, child keys, pointer)
        pointer = value[1]
        while True:
            navs.fetch += 1
            label = fetch(pointer)
            navs.down += 1
            child = down(pointer)
            if child is not None:
                frames.append((label, [], pointer))
                pointer = child
                continue
            key = label
            while frames:
                frames[-1][1].append(key)
                navs.right += 1
                sibling = right(pointer)
                if sibling is not None:
                    pointer = sibling
                    break
                label, keys, pointer = frames.pop()
                key = (label, tuple(keys))
            else:
                return key

    def v_select(self, value, predicate):
        owner, pointer, is_root = value
        if is_root:
            return None
        self._navs.select += 1
        if self._tracer.active:
            self._publish("select")
        found = self.document.select(pointer, predicate)
        return (owner, found, False) if found is not None else None
