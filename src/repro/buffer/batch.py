"""Batched navigation: the buffer side of LXP pipelining.

A plain buffer resolves one hole per round trip, so a forward scan of
a chunked source pays one network latency per chunk -- the reply to
chunk *n* names the hole for chunk *n+1*, a chain of dependent round
trips.  :class:`BatchingBuffer` ships its demand fill as a *batched*
LXP exchange instead (``fill_batch``): one round trip carries the
demanded hole plus up to ``speculate`` server-side speculative
follow-up fills on the holes the server's own replies introduce.  The
speculative replies are spliced into the open tree immediately, so
the next ``speculate`` navigations are buffer hits and the round-trip
chain collapses by a factor of ``speculate + 1``.

Speculative replies are addressed by hole id.  A reply whose hole is
no longer outstanding (already filled, or never grafted) is dropped --
the protocol stays correct under any server speculation policy,
including none.
"""

from __future__ import annotations

from dataclasses import dataclass

from .component import BufferComponent
from .holes import LXPProtocolError, OpenHole
from ..runtime.counters import Counters

__all__ = ["BatchingBuffer", "BatchStats"]


@dataclass
class BatchStats(Counters):
    """Accounting for one batching buffer.

    ``batches`` counts batched exchanges (round trips when the server
    sits across a channel); ``speculative_fills`` counts the extra
    replies those exchanges carried; ``dropped_replies`` counts
    speculative replies that arrived for holes no longer outstanding
    (wasted server work, never a correctness issue).
    """

    batches: int = 0
    speculative_fills: int = 0
    dropped_replies: int = 0

    @property
    def commands(self) -> int:
        """Fill commands answered across all batches."""
        return self.batches + self.speculative_fills


class BatchingBuffer(BufferComponent):
    """A BufferComponent that demands fills through ``fill_batch``.

    ``speculate`` is the per-exchange speculation budget handed to the
    server; 0 degenerates to one-command batches (same round trips as
    the plain buffer, same replies, useful as a protocol smoke test).
    """

    def __init__(self, server, speculate: int = 0, **kwargs):
        super().__init__(server, **kwargs)
        if speculate < 0:
            raise ValueError("speculate must be >= 0")
        self.speculate = speculate
        self.batch_stats = BatchStats()

    def _fill_hole(self, hole: OpenHole) -> None:
        tracer = self.tracer
        if tracer is None or not tracer.active:
            self._batched_fill(hole)
            return
        with tracer.span("buffer", "fill", buffer=self.name):
            self._batched_fill(hole)

    def _batched_fill(self, hole: OpenHole) -> None:
        replies = self.server.fill_batch([hole.hole_id],
                                         self.speculate)
        with self._lock:
            self.batch_stats.batches += 1
            demanded = True
            for hole_id, fragments in replies:
                if demanded and hole_id == hole.hole_id:
                    target: "OpenHole | None" = hole
                    demanded = False
                else:
                    target = self.find_hole(hole_id)
                    if target is None:
                        self.batch_stats.dropped_replies += 1
                        continue
                    self.batch_stats.speculative_fills += 1
                self._splice(target, fragments)
            if demanded:
                raise LXPProtocolError(
                    "batch reply omitted the requested hole %r"
                    % (hole.hole_id,))
