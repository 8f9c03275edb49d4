"""The navigable face of a pushed source.

A :class:`PushedSourceDocument` stands where the metered, buffered
wrapper document would have stood in the lazy plan.  It stays virtual
until the first navigation: only then does it execute the negotiated
native request (one ``wrapper.push(request)`` call, under a
``pushdown.execute`` span) and adopt the complete reply as a
pre-filled buffer -- so ``prepare()`` keeps the paper's
"root handle without source access" property, and everything after
the single native round trip is a buffer hit.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..buffer.component import BufferComponent
from ..navigation.interface import NavigableDocument
from ..runtime.context import ExecutionContext
from .plan import PushedSource

__all__ = ["PushedSourceDocument"]


class PushedSourceDocument(NavigableDocument):
    """Lazily executes one native request, then navigates its result."""

    def __init__(self, node: PushedSource,
                 context: Optional[ExecutionContext] = None):
        self._node = node
        self._context = context
        self._buffer: Optional[BufferComponent] = None

    @property
    def executed(self) -> bool:
        """Whether the native request has run yet."""
        return self._buffer is not None

    def _materialized(self) -> BufferComponent:
        # No lock: the document belongs to one query, whose operators
        # are driven by one thread at a time.
        buffer = self._buffer
        if buffer is not None:
            return buffer
        node = self._node
        context = self._context
        if context is not None:
            with context.span("pushdown", "execute",
                              url=node.compiled.url):
                reply = node.server.push(node.request)
        else:
            reply = node.server.push(node.request)
        tracer = context.tracer if context is not None else None
        self._buffer = BufferComponent.prefilled(
            reply, tracer=tracer, name="pushed:%s" % node.compiled.url)
        return self._buffer

    # -- NavigableDocument -------------------------------------------------
    def root(self) -> Any:
        return self._materialized().root()

    def down(self, pointer: Any) -> Optional[Any]:
        return self._materialized().down(pointer)

    def right(self, pointer: Any) -> Optional[Any]:
        return self._materialized().right(pointer)

    def fetch(self, pointer: Any) -> str:
        return self._materialized().fetch(pointer)

    def select(self, pointer: Any,
               predicate: "str | Callable[[str], bool]") -> Optional[Any]:
        return self._materialized().select(pointer, predicate)
