"""Instrumentation: count and log navigation commands.

The central quantity of the paper is *how many source navigations a
client navigation costs* (navigational complexity, Definition 2).
:class:`CountingDocument` is a transparent proxy that meters every
command crossing it; stacking one between a mediator and each source
yields exactly the measurements the browsability experiments need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .commands import LabelPredicate
from .interface import NavigableDocument
from ..runtime.counters import Counters
from ..runtime.locks import make_rlock

if False:  # pragma: no cover - import cycle guard, typing only
    from ..runtime.context import Tracer

__all__ = ["NavCounters", "CountingDocument"]


@dataclass
class NavCounters(Counters):
    """Per-command navigation counts (guarded by the meter's
    ``source.meter`` lock)."""

    down: int = 0
    right: int = 0
    fetch: int = 0
    select: int = 0

    derived = ("total",)

    @property
    def total(self) -> int:
        return self.down + self.right + self.fetch + self.select

    def __str__(self) -> str:
        return ("d=%d r=%d f=%d sel=%d total=%d"
                % (self.down, self.right, self.fetch, self.select,
                   self.total))


class CountingDocument(NavigableDocument):
    """Metering proxy around any NavigableDocument.

    Parameters
    ----------
    inner:
        The document to instrument.
    name:
        Optional name shown in logs (e.g. the source URL).
    log:
        When True, every command is appended to :attr:`trace` as
        ``(command_name, pointer)`` pairs.
    tracer:
        Optional :class:`~repro.runtime.context.Tracer`; when it has
        subscribers (or records), every command crossing this layer is
        emitted as a ``source`` event -- the per-navigation hook of
        the execution context.
    """

    def __init__(self, inner: NavigableDocument, name: str = "",
                 log: bool = False, tracer: "Optional[Tracer]" = None,
                 metrics=None):
        self.inner = inner
        self.name = name
        self.counters = NavCounters()
        self.log = log
        self.tracer = tracer
        #: optional MetricsRegistry; every command also increments
        #: ``source_navigations_total{source=,command=}``
        self.metrics = metrics
        self.trace: List[Tuple[str, object]] = []
        #: guards counters and the command log: with prefetch
        #: workers, one meter is crossed by several threads.
        #: Re-entrant because a tracer callback may itself navigate.
        self._lock = make_rlock("source.meter")

    def _publish(self, command: str) -> None:
        """Tracer/metrics fan-out -- called *outside* the meter lock.

        Both sinks run foreign code (tracer subscribers, metric
        factories); invoking them while holding the meter RLock puts
        every subscriber under this lock in the order graph (L012).
        """
        if self.tracer is not None and self.tracer.active:
            # lint: allow=E002 -- command is "d"/"r"/"f"/"select"
            self.tracer.emit("source", command, source=self.name)
        metrics = self.metrics
        if metrics is not None and metrics.enabled:
            metrics.counter("source_navigations_total").inc(
                source=self.name or "unnamed", command=command)

    # -- NavigableDocument ----------------------------------------------
    def root(self):
        # Obtaining the root handle is free: the paper's preprocessing
        # returns it without source access.
        return self.inner.root()

    # Each command is one lock section (bump the counter; append to
    # the log when logging) and then, only when a live tracer or an
    # enabled metrics registry is listening -- either can be switched
    # on mid-query, so that is asked per command -- the fan-out.
    def down(self, pointer):
        with self._lock:
            self.counters.down += 1
            if self.log:
                self.trace.append(("d", pointer))
        tracer, metrics = self.tracer, self.metrics
        if (tracer is not None and tracer.active) \
                or (metrics is not None and metrics.enabled):
            self._publish("d")
        return self.inner.down(pointer)

    def right(self, pointer):
        with self._lock:
            self.counters.right += 1
            if self.log:
                self.trace.append(("r", pointer))
        tracer, metrics = self.tracer, self.metrics
        if (tracer is not None and tracer.active) \
                or (metrics is not None and metrics.enabled):
            self._publish("r")
        return self.inner.right(pointer)

    def fetch(self, pointer) -> str:
        with self._lock:
            self.counters.fetch += 1
            if self.log:
                self.trace.append(("f", pointer))
        tracer, metrics = self.tracer, self.metrics
        if (tracer is not None and tracer.active) \
                or (metrics is not None and metrics.enabled):
            self._publish("f")
        return self.inner.fetch(pointer)

    def select(self, pointer, predicate: LabelPredicate):
        with self._lock:
            self.counters.select += 1
            if self.log:
                self.trace.append(("select", pointer))
        tracer, metrics = self.tracer, self.metrics
        if (tracer is not None and tracer.active) \
                or (metrics is not None and metrics.enabled):
            self._publish("select")
        return self.inner.select(pointer, predicate)

    # -- measurement helpers ----------------------------------------------
    def reset(self) -> None:
        # Under the meter, like every other write to the counters and
        # the log.  Spelled out (fields zeroed by name, the log cut by
        # slice) because the lock analyzer resolves ``.reset()`` and
        # ``.clear()`` by name, across every class that has one: the
        # generic calls would put ``runtime.counters`` and
        # ``fragcache.shard`` under ``source.meter`` in the order
        # graph.
        with self._lock:
            counters = self.counters
            counters.down = counters.right = 0
            counters.fetch = counters.select = 0
            del self.trace[:]

    @property
    def total(self) -> int:
        return self.counters.total
