"""The virtual answer document: ``tupleDestroy`` as a NavigableDocument.

The plan root's single binding carries the constructed answer element;
``VirtualDocument`` exposes that element's value tree through the plain
DOM-VXD interface -- this is the handle the mediator returns to the
client "without even accessing the sources": obtaining ``root()`` is
free, and the first source navigation happens only when the client
fetches or descends.

A pointer below the root is the answer's value id itself: each
navigation goes straight to the id's owner (``vid[0].v_down(vid)``),
not down through the plan.
"""

from __future__ import annotations

from ..navigation.interface import NavigableDocument
from .base import LazyError, LazyOperator

__all__ = ["VirtualDocument"]


class VirtualDocument(NavigableDocument):
    """DOM-VXD facade over the value of ``var`` in the plan's single
    output binding (``tupleDestroy``'s variable, which the algebra
    checked is bound)."""

    def __init__(self, op: LazyOperator, var: str):
        self.op = op
        self.var = var
        self._root_vid = None
        self._resolved = False

    def _resolve_root(self):
        """Locate the answer value (first touch of the plan)."""
        if not self._resolved:
            binding = self.op.first_binding()
            if binding is None:
                raise LazyError(
                    "tupleDestroy over an empty binding list: the plan "
                    "must produce exactly one binding"
                )
            self._root_vid = self.op.attribute(binding, self.var)
            self._resolved = True
        return self._root_vid

    # -- NavigableDocument -----------------------------------------------
    def root(self):
        # A pure handle: no plan/source access until navigation starts.
        return ("root",)

    def _vid(self, pointer):
        if pointer == ("root",):
            return self._resolve_root()
        return pointer

    # Client navigations are the roots of the causal span tree: each
    # one opens a ``client`` span (when the tracer is live) under
    # which every operator call, buffer fill, round trip, and source
    # command it provokes is recorded.
    def down(self, pointer):
        tracer = self.op.ctx.tracer
        if not tracer.active:
            vid = self._vid(pointer)
            return vid[0].v_down(vid)
        with tracer.span("client", "down"):
            vid = self._vid(pointer)
            return vid[0].v_down(vid)

    def right(self, pointer):
        tracer = self.op.ctx.tracer
        if not tracer.active:
            vid = self._vid(pointer)
            return vid[0].v_right(vid)
        with tracer.span("client", "right"):
            vid = self._vid(pointer)
            return vid[0].v_right(vid)

    def fetch(self, pointer):
        tracer = self.op.ctx.tracer
        if not tracer.active:
            vid = self._vid(pointer)
            return vid[0].v_fetch(vid)
        with tracer.span("client", "fetch"):
            vid = self._vid(pointer)
            return vid[0].v_fetch(vid)

    def select(self, pointer, predicate):
        tracer = self.op.ctx.tracer
        if not tracer.active:
            return super().select(pointer, predicate)
        with tracer.span("client", "select"):
            return super().select(pointer, predicate)
