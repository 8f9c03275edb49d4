"""Benchmark-owned tracing: a span recorder and timing proxies for the
public seams of the engine.

Nothing here touches the engine's own ``Tracer``: layers are measured
from outside, by wrapping the objects handed to public entry points
(``register_source``, ``register_wrapper``, ``buffered``,
``XMLElement(doc, doc.root())``, ``Connection``, ``SocketChannel``).
Every proxy forwards unknown attributes to the wrapped object, so
capability negotiation by presence (``snapshot_version``,
``push_compile``, ``stats``) sees the wrapped object's answer.

A span is ``[layer, start_s, end_s, parent_index, op_id]``; parents
index into the same list (-1 for an op's root span).  A layer's *self
time* is its spans' duration minus the part their child spans cover.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, List, Tuple

__all__ = ["Recorder", "DocProxy", "LXPProxy", "ConnectionProxy",
           "fold_self_times", "ROOT"]

#: layer name of the span that brackets one whole op
ROOT = "op"

Span = List[Any]


class Recorder:
    """Collects the spans of one op at a time.

    Single-threaded by design: every traced workload drives its stack
    from one thread (served_sessions gives each connection thread its
    own recorder).
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.op_id = 0

    def begin(self, layer: str) -> int:
        stack = self._stack
        index = len(self.spans)
        self.spans.append([layer, perf_counter(), 0.0,
                           stack[-1] if stack else -1, self.op_id])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def call(self, layer: str, function, *args):
        """Run ``function(*args)`` inside a span of ``layer``."""
        index = self.begin(layer)
        try:
            return function(*args)
        finally:
            self.end(index)

    def take(self) -> List[Span]:
        """Close whatever an exception left open, hand over the op's
        spans and start a new op."""
        while self._stack:
            self.end(self._stack[-1])
        spans, self.spans = self.spans, []
        self.op_id += 1
        return spans


def fold_self_times(spans: List[Span]
                    ) -> Dict[str, Tuple[float, int]]:
    """Per layer: (self seconds, span count) over ``spans``.

    Self time of a span is its duration minus its direct children's
    durations, so the self times of one op's spans sum to the root
    span's duration exactly.
    """
    child_time = [0.0] * len(spans)
    for _layer, start, end, parent, _op in spans:
        if parent >= 0:
            child_time[parent] += end - start
    folded: Dict[str, Tuple[float, int]] = {}
    for index, (layer, start, end, _parent, _op) in enumerate(spans):
        self_s, count = folded.get(layer, (0.0, 0))
        folded[layer] = (self_s + (end - start) - child_time[index],
                         count + 1)
    return folded


class _Forwarding:
    """What the proxies share: the wrapped object, where to record,
    and forwarding of every attribute they do not time."""

    def __init__(self, inner, recorder: Recorder, layer: str) -> None:
        self._inner = inner
        self._recorder = recorder
        self._layer = layer

    def __getattr__(self, name: str) -> Any:
        # only reached for names the proxy itself does not define
        return getattr(self._inner, name)


class DocProxy(_Forwarding):
    """A timed ``NavigableDocument``: d/r/f/select as spans."""

    def root(self):
        return self._recorder.call(self._layer, self._inner.root)

    def down(self, pointer):
        return self._recorder.call(self._layer, self._inner.down,
                                   pointer)

    def right(self, pointer):
        return self._recorder.call(self._layer, self._inner.right,
                                   pointer)

    def fetch(self, pointer):
        return self._recorder.call(self._layer, self._inner.fetch,
                                   pointer)

    def select(self, pointer, predicate):
        return self._recorder.call(self._layer, self._inner.select,
                                   pointer, predicate)


class LXPProxy(_Forwarding):
    """A timed ``LXPServer``: get_root/fill/fill_batch as spans."""

    def get_root(self):
        return self._recorder.call(self._layer, self._inner.get_root)

    def fill(self, hole_id):
        return self._recorder.call(self._layer, self._inner.fill,
                                   hole_id)

    def fill_batch(self, hole_ids, speculate: int = 0):
        return self._recorder.call(self._layer, self._inner.fill_batch,
                                   hole_ids, speculate)


class _CursorProxy(_Forwarding):
    def __init__(self, inner, owner: "ConnectionProxy") -> None:
        super().__init__(inner, owner._recorder, owner._layer)
        self._owner = owner

    def advance(self):
        self._owner.cursor_advances += 1
        return self._recorder.call(self._layer, self._inner.advance)


class ConnectionProxy(_Forwarding):
    """A timed relational ``Connection``: statements and cursor
    advances as spans, with their exact counts."""

    def __init__(self, inner, recorder: Recorder, layer: str) -> None:
        super().__init__(inner, recorder, layer)
        self.statements = 0
        self.cursor_advances = 0

    def execute(self, sql: str):
        self.statements += 1
        return _CursorProxy(
            self._recorder.call(self._layer, self._inner.execute, sql),
            self)

    def tables(self):
        return self._recorder.call(self._layer, self._inner.tables)

    def columns(self, table: str):
        return self._recorder.call(self._layer, self._inner.columns,
                                   table)
