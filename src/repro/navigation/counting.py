"""Instrumentation: count and log navigation commands.

The central quantity of the paper is *how many source navigations a
client navigation costs* (navigational complexity, Definition 2).
:class:`CountingDocument` is a transparent proxy that meters every
command crossing it; stacking one between a measurement and each
source yields exactly the counts the browsability experiments need.

A mediator's registered source is metered by a :class:`SourceMeter`
instead.  The lazy ``source`` operators of each query count into their
own :class:`~repro.runtime.context.ExecutionContext` (one navigating
thread per query, so no lock); the meter sums those per-query counters
with the navigations that reached the source any other way.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .commands import LabelPredicate
from .interface import NavigableDocument
from ..runtime.counters import Counters
from ..runtime.locks import make_lock

if False:  # pragma: no cover - import cycle guard, typing only
    from ..runtime.context import Tracer

__all__ = ["NavCounters", "CountingDocument", "SourceMeter"]


@dataclass
class NavCounters(Counters):
    """Per-command navigation counts, written by one navigating
    thread (a query's, or a :class:`CountingDocument`'s caller)."""

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
                 log: bool = False, tracer: "Optional[Tracer]" = None):
        self.inner = inner
        self.name = name
        self.counters = NavCounters()
        self.log = log
        self.tracer = tracer
        self.trace: List[Tuple[str, object]] = []

    def publish(self, command: str) -> None:
        """The ``source`` event of one command, when the tracer
        listens -- it can be switched on mid-query, so that is asked
        per command."""
        if self.tracer is not None and self.tracer.active:
            # lint: allow=E002 -- command is "d"/"r"/"f"/"select"
            self.tracer.emit("source", command, source=self.name)

    def _note(self, command: str, pointer) -> None:
        if self.log:
            self.trace.append((command, pointer))
        self.publish(command)

    # -- NavigableDocument ----------------------------------------------
    def root(self):
        # Obtaining the root handle is free: the paper's preprocessing
        # returns it without source access.
        return self.inner.root()

    # No lock: a meter is driven by one thread at a time.
    def down(self, pointer):
        self.counters.down += 1
        self._note("d", pointer)
        return self.inner.down(pointer)

    def right(self, pointer):
        self.counters.right += 1
        self._note("r", pointer)
        return self.inner.right(pointer)

    def fetch(self, pointer) -> str:
        self.counters.fetch += 1
        self._note("f", pointer)
        return self.inner.fetch(pointer)

    def select(self, pointer, predicate: LabelPredicate):
        self.counters.select += 1
        self._note("select", pointer)
        return self.inner.select(pointer, predicate)

    # -- measurement helpers ----------------------------------------------
    def reset(self) -> None:
        self.counters.reset()
        del self.trace[:]

    @property
    def total(self) -> int:
        return self.counters.total


class SourceMeter:
    """The navigation count of one registered source, over every path
    that reaches it.

    * :meth:`counters_for` hands each execution context its own
      :class:`NavCounters`; the context's lazy ``source`` operators
      count into them on the query's one navigating thread.  Once the
      context is garbage-collected its counters are folded into a
      base, so the live set is only as large as the set of live
      queries -- bounded on a long-lived daemon.
    * :attr:`document` is the :class:`CountingDocument` the catalog
      hands every other path (the eager baseline, say): it counts for
      itself.

    :attr:`counters` / :attr:`total` read the sum; :meth:`reset`
    starts it from zero again without touching any query's own
    counters.  The ``source.meter`` lock is taken on attach, fold and
    read -- never per navigation.
    """

    def __init__(self, document: CountingDocument) -> None:
        self.document = document
        #: counters of collected contexts, folded in, less every reset
        self._base = NavCounters()
        #: serial -> counters of a live context
        self._live: Dict[int, NavCounters] = {}
        #: serials of contexts collected since the last fold.  A
        #: finalizer only appends here -- it may run on any thread,
        #: even inside a locked section of this very meter -- and the
        #: fold happens under the lock.
        self._released: List[int] = []
        self._serials = itertools.count()
        self._lock = make_lock("source.meter")

    def counters_for(self, owner: object) -> NavCounters:
        """Fresh counters for ``owner`` (an execution context): summed
        into this meter while ``owner`` lives, folded into the base
        once it is collected."""
        counters = NavCounters()
        serial = next(self._serials)
        with self._lock:
            self._fold_locked()
            self._live[serial] = counters
        weakref.finalize(owner, self._released.append, serial)
        return counters

    def _fold_locked(self) -> None:
        released, live = self._released, self._live
        while released:
            self._base = self._base + live.pop(released.pop())

    def _sum_locked(self) -> NavCounters:
        self._fold_locked()
        return sum(self._live.values(), self._base + self.document.counters)

    @property
    def counters(self) -> NavCounters:
        """Navigations since registration (or the last :meth:`reset`),
        per command."""
        with self._lock:
            return self._sum_locked()

    @property
    def total(self) -> int:
        return self.counters.total

    def snapshot(self) -> Dict[str, int]:
        """:attr:`counters`' fields, as a ``Counters`` snapshot reads
        them (the mediator's own context scrapes its meters)."""
        return self.counters.snapshot()

    def reset(self) -> None:
        with self._lock:
            self._base = self._base - self._sum_locked()
