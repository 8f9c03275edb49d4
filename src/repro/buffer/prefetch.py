"""Prefetching: decoupling client pull from wrapper push (Section 4).

"a buffer can be used to decouple the client-driven view navigation
('pull from above') and the production of results by the wrapped
source ('push from below') based on an asynchronous prefetching
strategy."

Two realizations of that strategy share the :class:`PrefetchStats`
accounting:

:class:`PrefetchingBuffer`
    Models the asynchrony's *effect* deterministically: between
    client-issued navigations the prefetcher fills up to ``lookahead``
    outstanding holes (leftmost-first -- the direction a
    forward-browsing client will need next).  The stats separate
    demand fills (the client waited for these) from prefetch fills
    (overlapped with client think time), so experiment E5 can report
    stall counts rather than pretend wall-clock concurrency.

:class:`AsyncPrefetchingBuffer`
    The real thing: a small thread pool fills outstanding holes
    *during* client think time.  Workers only perform the source I/O
    (``server.fill``); completed fragments are handed over and spliced
    into the open tree on the client thread, under the buffer lock, so
    the open tree stays single-writer.  A navigation that reaches a
    hole whose fill is still in flight *stalls* (counted) and waits
    for that one future -- never issuing a duplicate fill.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional

from .component import BufferComponent
from .holes import OpenElem, OpenHole
from ..runtime.counters import Counters

__all__ = ["PrefetchingBuffer", "AsyncPrefetchingBuffer",
           "PrefetchStats"]


@dataclass
class PrefetchStats(Counters):
    """Demand/prefetch fill split, plus stall accounting.

    ``stalls`` counts navigations that reached a hole whose prefetch
    was issued but not yet complete -- the client had to wait.  The
    deterministic prefetcher never stalls (its fills are synchronous);
    the thread-backed one reports its overlap quality through the
    ``stalls : prefetch_fills`` ratio.
    """

    demand_fills: int = 0
    prefetch_fills: int = 0
    stalls: int = 0


class PrefetchingBuffer(BufferComponent):
    """A BufferComponent that fills holes ahead of the client.

    Parameters
    ----------
    server:
        The LXP wrapper to pull from.
    lookahead:
        Maximum holes filled per client navigation, beyond what the
        navigation itself demanded.  0 disables prefetching (plain
        buffer behaviour).
    """

    def __init__(self, server, lookahead: int = 2, **kwargs):
        super().__init__(server, **kwargs)
        self.lookahead = lookahead
        self.prefetch_stats = PrefetchStats()
        self._in_prefetch = False
        #: prefetch fills issued since the last demand fill -- the
        #: prefetcher never runs more than ``lookahead`` fills ahead of
        #: what the client actually consumed.
        self._ahead = 0

    # Every real fill passes through _fill_hole; classify it.
    def _fill_hole(self, hole: OpenHole) -> None:
        super()._fill_hole(hole)
        if self._in_prefetch:
            self.prefetch_stats.prefetch_fills += 1
            self._ahead += 1
        else:
            self.prefetch_stats.demand_fills += 1
            self._ahead = 0

    def _prefetch(self) -> None:
        if self.lookahead <= 0 or self._ahead >= self.lookahead:
            return
        budget = self.lookahead - self._ahead
        self._in_prefetch = True
        try:
            for hole in self.leftmost_holes(budget):
                # The hole may have been detached by a previous splice
                # in this round; skip stale ones.
                if hole.parent is not None \
                        and hole in hole.parent.children:
                    self._fill_hole(hole)
        finally:
            self._in_prefetch = False

    # -- navigations trigger a prefetch round afterwards -----------------
    def down(self, pointer):
        result = super().down(pointer)
        self._prefetch()
        return result

    def right(self, pointer):
        result = super().right(pointer)
        self._prefetch()
        return result


class AsyncPrefetchingBuffer(BufferComponent):
    """A BufferComponent whose prefetcher is a real thread pool.

    After each client navigation, up to ``lookahead`` leftmost
    outstanding holes are dispatched to ``workers`` threads.  Workers
    run *only* the source I/O -- ``server.fill(hole_id)`` -- so the
    layers below must merely keep their counters thread-safe (they
    do); the open tree itself is touched exclusively on the client
    thread, which collects completed futures at the moment their hole
    is demanded and splices under the buffer lock.

    Determinism note: the *resulting* open tree and answer are
    identical to the sequential path (the same holes get the same
    replies); only the timing and the demand/prefetch classification
    of fills differ.  A prefetched fill that *failed* re-raises its
    error when (and only when) the client actually demands that hole,
    so the resilience seams keep their sequential semantics.
    """

    def __init__(self, server, lookahead: int = 2, workers: int = 1,
                 **kwargs):
        super().__init__(server, **kwargs)
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if lookahead < 0:
            raise ValueError("lookahead must be >= 0")
        self.lookahead = lookahead
        self.workers = workers
        self.prefetch_stats = PrefetchStats()
        self._executor: Optional[ThreadPoolExecutor] = None
        #: holes with a fill in flight (or complete, not yet spliced)
        self._inflight: Dict[OpenHole, Future] = {}

    def _ensure_executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="mix-prefetch")
        return self._executor

    # -- demand path -------------------------------------------------------
    def _fill_hole(self, hole: OpenHole) -> None:
        with self._lock:
            future = self._inflight.pop(hole, None)
        if future is None:
            super()._fill_hole(hole)  # spans like any demand fill
            self.prefetch_stats.demand_fills += 1
            return
        if not future.done():
            self.prefetch_stats.stalls += 1
        fragments = future.result()  # re-raises a worker's failure
        self._splice(hole, fragments)
        self.prefetch_stats.prefetch_fills += 1

    # -- prefetch scheduling ----------------------------------------------
    def _traced_fill(self, hole_id, parent):
        """The worker-thread task: the source I/O, bracketed (when the
        tracer is live) by span adoption so the ``prefetch_fill`` span
        and everything the source emits stay children of the client
        navigation that scheduled the prefetch."""
        tracer = self.tracer
        if tracer is None or not tracer.active:
            return self.server.fill(hole_id)
        with tracer.attach(parent):
            with tracer.span("buffer", "prefetch_fill",
                             buffer=self.name):
                return self.server.fill(hole_id)

    def _schedule(self) -> None:
        if self.lookahead <= 0:
            return
        tracer = self.tracer
        parent = (tracer.capture()
                  if tracer is not None and tracer.active else None)
        with self._lock:
            budget = self.lookahead - len(self._inflight)
            if budget <= 0:
                return
            executor = self._ensure_executor()
            for hole in self.leftmost_holes(self.lookahead):
                if budget <= 0:
                    break
                if hole in self._inflight:
                    continue
                self._inflight[hole] = executor.submit(
                    self._traced_fill, hole.hole_id, parent)
                budget -= 1

    def down(self, pointer):
        result = super().down(pointer)
        self._schedule()
        return result

    def right(self, pointer):
        result = super().right(pointer)
        self._schedule()
        return result

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Stop the pool; in-flight results are abandoned (their holes
        stay open and will be demand-filled if ever reached)."""
        with self._lock:
            executor, self._executor = self._executor, None
            inflight, self._inflight = dict(self._inflight), {}
        for future in inflight.values():
            future.cancel()
        if executor is not None:
            executor.shutdown(wait=True)
