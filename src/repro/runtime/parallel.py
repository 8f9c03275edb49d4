"""The buffer's look-ahead pool: source fills off the client thread.

The paper puts read-ahead in one place, the generic buffer of Sec. 4,
which decouples the client-driven navigation ("pull from above") from
the production of results by the wrapped source ("push from below").
A :class:`~repro.buffer.component.BufferComponent` with ``workers > 0``
owns one :class:`FanoutDispatcher` and submits its look-ahead fills to
it; the client thread splices each reply when it reaches the hole.

Design constraints, in order:

* **Only when asked.**  The buffer builds a pool only for
  ``workers > 0``; the threads start with the first submitted fill.
* **No nesting.**  A pool worker runs ``server.fill`` and nothing
  else, so it never submits to its own dispatcher and cannot starve
  the pool waiting on itself.
* **Errors propagate.**  A task's exception is re-raised on the
  calling thread by ``Future.result()``, so the resilience seams
  (retries, breakers, ``<mix:error>`` degradation) compose unchanged:
  they live *below* the pool, around the actual source I/O.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Optional
from .locks import make_lock

__all__ = ["FanoutDispatcher"]


class FanoutDispatcher:
    """A bounded thread pool for one buffer's look-ahead fills.

    The pool is created lazily on the first :meth:`submit` and torn
    down by :meth:`close` (or interpreter exit).
    """

    def __init__(self, workers: int,
                 tracer: Optional[Any] = None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        #: optional tracer whose current span is propagated onto
        #: worker threads, keeping pooled fills inside the causal span
        #: tree of the navigation that scheduled them
        self.tracer = tracer
        self._executor: Optional[ThreadPoolExecutor] = None
        self._lock = make_lock("fanout.dispatcher")

    def _ensure_executor(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="mix-fanout")
            return self._executor

    def _propagate(self, thunk: Callable) -> Callable:
        """Wrap ``thunk`` to adopt the dispatching thread's current
        span on the worker thread (no-op for idle tracers: nothing is
        captured, nothing is attached)."""
        tracer = self.tracer
        if tracer is None or not tracer.active:
            return thunk
        parent = tracer.capture()
        if parent is None:
            return thunk

        def attached() -> Any:
            with tracer.attach(parent):
                return thunk()
        return attached

    # -- public API --------------------------------------------------------
    def submit(self, thunk: Callable[[], object]) -> Future:
        """Start ``thunk`` on the pool; returns its Future."""
        return self._ensure_executor().submit(self._propagate(thunk))

    def close(self) -> None:
        """Shut the pool down (idempotent); idle dispatchers no-op."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __repr__(self) -> str:
        return "FanoutDispatcher(workers=%d)" % self.workers
