"""Cross-session fragment cache: reuse fragments other sessions paid for.

The paper's lazy mediator pays sources *per navigation*, and every
cost it pays is for an immutable fragment of some source's exported
view.  Yet each session historically rebuilt its virtual view from
scratch: the operator caches on the
:class:`~repro.runtime.context.ExecutionContext` are strictly
per-execution.  This module adds the missing tier -- a process-wide
:class:`FragmentStore`, keyed by ``(view_id, region)``, holding
the immutable fill replies previous sessions already paid a source
for, tagged with the source snapshot version they were derived from.

Three pieces:

* :class:`FragmentStore` -- the store.  One lock guards an entry
  table keyed by ``(view_id, hole_id)``, a whole-view table keyed by
  ``view_id``, and a single-flight table so concurrent sessions
  missing on the same region issue exactly one source fill.
  An entry is the wrapper's reply record itself
  (:class:`~repro.buffer.holes.Fragments`, immutable), tagged with its
  source version: a hit is one ``dict`` probe and hands the record out
  as it is, and a miss allocates no wait primitive unless a second
  session actually waits.  A lookup presenting a newer source version
  drops the stale entry (counted as an invalidation), and
  :meth:`FragmentStore.sweep` drops a view's whole stale epoch at
  once.
* :class:`CachingLXPServer` -- the seam proxy.  It sits between the
  generic buffer and the (possibly resilience-wrapped) wrapper:
  ``fill`` consults the store before touching the source, keyed by the
  wrapper's *stateless* hole ids and the wrapper's current
  ``snapshot_version()``.  When a session's fills resolve every hole
  the server ever introduced, the complete view is assembled, in one
  pass, into one hole-free record and stored, so the next session
  adopts it through
  :meth:`~repro.buffer.component.BufferComponent.prefilled` -- the
  hole-free fast path -- without a single source navigation.
* :func:`admissible` / :class:`FragcacheDecision` -- the
  pushdown-style compile-time admissibility check: only *versioned*,
  *side-effect-free* exports are cacheable (an export is a bare
  source, bounded browsable under Definition 2).
  Every registered wrapper gets a decision record, surfaced through
  ``QueryResult.stats()``/``explain()`` and a ``fragcache.decision``
  trace event.

Everything is gated behind ``EngineConfig(fragment_cache=True)`` (CLI
``--fragment-cache``); with the default off this module is never even
imported, so the reference path of the paper stays byte-identical.

Correctness posture: a cached reply is only ever served when its
recorded version equals the source's *current* snapshot version, read
fresh on every fill.  A source advancing mid-session therefore behaves
exactly like the cache-off run under the same interleaving -- fills
issued before the advance carry the old snapshot, fills after it the
new one, and no *stale* fragment (old data at a new version) is ever
grafted.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import partial
from typing import (Any, Callable, Dict, Iterator, List, Optional, Set,
                    Tuple)

from ..buffer.holes import Fragments
from ..buffer.lxp import LXPServer
from .counters import Counters
from .locks import make_lock

__all__ = [
    "FragmentKey", "FragcacheStats", "FragmentStore",
    "CachingLXPServer", "FragcacheDecision", "admissible",
    "fragment_cached", "shared_store", "reset_shared_store",
]

#: (view_id, region): the store key of one cached fill reply.  The
#: region is the wrapper's stateless hole id (``(path, lo, hi)`` for
#: tree wrappers), so exact-subtree reuse needs no translation layer.
FragmentKey = Tuple[str, object]


@dataclass
class FragcacheStats(Counters, shared=True):
    """Counters for one :class:`FragmentStore` (self-locked: sessions
    in many threads hit one store).

    The structural invariant tests pin down: every ``fill`` demand
    reaching the caching seam counts exactly one hit or one miss, so
    ``hits + misses == demands`` always.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidations: int = 0
    single_flight_waits: int = 0
    view_stores: int = 0
    view_adoptions: int = 0


#: observer callback: outcome name -> None (tracing seam)
_Observer = Optional[Callable[[str], None]]


class FragmentStore:
    """A process-wide store of immutable view fragments.

    Replies (:class:`~repro.buffer.holes.Fragments`) are immutable
    records, so entries are shared across sessions as they are; the
    store never hands out anything a caller could mutate.

    One lock guards three tables: the entries keyed by
    ``(view_id, hole_id)``, the whole views keyed by ``view_id``, and
    the keys being produced.  An entry is ``(version, fragments)``:
    the reply record itself, tagged with its source snapshot.  The
    lock is held for a probe or an update only, never across a source
    fill or an observer callback.
    """

    def __init__(self) -> None:
        self.stats = FragcacheStats()
        self._lock = make_lock("fragcache.store")
        self._entries: Dict[FragmentKey, Tuple[object, Fragments]] = {}
        self._views: Dict[str, Tuple[object, Fragments]] = {}
        #: keys being produced, each with the event its waiters wait
        #: on -- None until a second session actually waits
        self._inflight: Dict[FragmentKey, Optional[threading.Event]] = {}

    # -- the demand path ---------------------------------------------------
    def fill_through(self, key: FragmentKey, version: object,
                     producer: Callable[[], Fragments],
                     observer: _Observer = None) -> Fragments:
        """Serve ``key`` at ``version`` from the store, or produce it.

        The single-flight contract: when several sessions miss on the
        same key concurrently, exactly one runs ``producer`` (one
        source fill); the rest wait for it and then read the stored
        entry.  A failing producer releases its waiters, and the first
        of them becomes the next producer.  The registration is
        released and its waiters woken whatever happens -- a raising
        ``observer`` (foreign code: a tracer subscriber) included; its
        exception still reaches the caller.

        Every call counts exactly one hit or one miss; a stale entry
        (version mismatch) additionally counts one invalidation before
        the miss.  The counters move in one section per call.
        """
        hits = misses = invalidations = waits = 0
        try:
            while True:
                # Observer callbacks are foreign code: they run after
                # the lock is released (the entry check and the
                # in-flight registration stay atomic).
                with self._lock:
                    entry = self._entries.get(key)
                    if entry is not None and entry[0] == version:
                        hits = 1
                        found = entry[1]
                    else:
                        if entry is not None:
                            # The source snapshot advanced past this
                            # entry: drop it and fall through to a
                            # producing miss.
                            del self._entries[key]
                            invalidations += 1
                        if key not in self._inflight:
                            self._inflight[key] = None
                            break
                        event = self._inflight[key] or threading.Event()
                        self._inflight[key] = event
                if hits:
                    if observer is not None:
                        observer("hit")
                    return found
                # Another session is filling this key: wait outside
                # the lock, then re-check the entry table from the top.
                waits += 1
                if observer is not None:
                    if entry is not None:
                        observer("invalidate")
                    observer("wait")
                event.wait()
            try:
                if observer is not None and entry is not None:
                    observer("invalidate")
                fragments = producer()
                misses = 1
            finally:
                with self._lock:
                    if misses:
                        self._entries[key] = (version, fragments)
                    waiter = self._inflight.pop(key)
                if waiter is not None:
                    waiter.set()
            if observer is not None:
                observer("miss")
                observer("store")
            return fragments
        finally:
            with self.stats.lock:
                self.stats.hits += hits
                self.stats.misses += misses
                self.stats.stores += misses
                self.stats.invalidations += invalidations
                self.stats.single_flight_waits += waits

    # -- whole views -------------------------------------------------------
    def store_view(self, view_id: str, version: object,
                   fragments: Fragments) -> None:
        """Record the complete view (one hole-free record) at
        ``version``."""
        with self._lock:
            self._views[view_id] = (version, fragments)
        self.stats.bump("view_stores")

    def view(self, view_id: str, version: object) -> Optional[Fragments]:
        """The complete view at exactly ``version``, if stored.

        A stale whole-view entry is dropped (counted as an
        invalidation), never returned: adoption through the prefilled
        buffer must be snapshot-exact.
        """
        with self._lock:
            entry = self._views.get(view_id)
            stale = entry is not None and entry[0] != version
            if stale:
                del self._views[view_id]
        if stale:
            self.stats.bump("invalidations")
        elif entry is not None:
            self.stats.bump("view_adoptions")
            return entry[1]
        return None

    # -- epoch invalidation ------------------------------------------------
    def sweep(self, view_id: str, current_version: object) -> int:
        """Drop every entry of ``view_id`` whose version is not
        ``current_version`` (the version-epoch invalidation sweep).
        Returns how many entries were dropped."""
        with self._lock:
            stale_keys = [key for key, entry in self._entries.items()
                          if key[0] == view_id
                          and entry[0] != current_version]
            for key in stale_keys:
                del self._entries[key]
            dropped = len(stale_keys)
            view = self._views.get(view_id)
            if view is not None and view[0] != current_version:
                del self._views[view_id]
                dropped += 1
        self.stats.bump("invalidations", dropped)
        return dropped

    def clear(self) -> None:
        """Drop every entry (counters keep their history)."""
        with self._lock:
            self._entries.clear()
            self._views.clear()

    def entry_count(self) -> int:
        """Live fragment entries (tests/diagnostics)."""
        with self._lock:
            return len(self._entries)


# ----------------------------------------------------------------------
# The process-wide shared store
# ----------------------------------------------------------------------

_shared = FragmentStore()


def shared_store() -> FragmentStore:
    """The process-wide store every mediator shares by default, so a
    server daemon's sessions -- and successive in-process mediators --
    reuse each other's fragments."""
    return _shared


def reset_shared_store() -> None:
    """Start a fresh shared store (test isolation)."""
    global _shared
    _shared = FragmentStore()


# ----------------------------------------------------------------------
# The caching seam
# ----------------------------------------------------------------------

def _assemble(root_id: object,
              replies: Dict[object, Fragments]) -> Optional[Fragments]:
    """The whole view as one hole-free record: the root hole with
    every hole replaced by its own reply, in one pass over a stack of
    the runs still being read.  None when a hole has no reply or the
    view is not one element."""
    labels: List[Optional[str]] = []
    sizes: List[int] = []
    #: (reply, its hole ids, next entry, end of the run, slot of the
    #: element whose children the run is -- None: a hole's reply)
    runs: List[Tuple[Fragments, Iterator[object], int, int,
                     Optional[int]]] = [
        (Fragments.hole(root_id), iter((root_id,)), 0, 1, None)]
    while runs:
        reply, holes, index, end, slot = runs.pop()
        rlabels, rsizes, _ = reply
        while index < end:
            # the siblings on from here that hold no hole, in bulk
            hole_at = rlabels.index(None, index, end) \
                if None in rlabels[index:end] else end
            stop = index
            while stop < end and stop + rsizes[stop] <= hole_at:
                stop += rsizes[stop]
            labels += rlabels[index:stop]
            sizes += rsizes[index:stop]
            if stop > index:
                index = stop
                continue
            runs.append((reply, holes, index + rsizes[index], end, slot))
            if rlabels[index] is None:  # a hole: its reply, then the rest
                filled = replies.get(next(holes))
                if filled is None:
                    return None
                runs.append((filled, iter(filled.holes), 0,
                             len(filled.labels), None))
            else:   # an element holding a hole: its children first
                labels.append(rlabels[index])
                sizes.append(1)
                runs.append((reply, holes, index + 1,
                             index + rsizes[index], len(sizes) - 1))
            break
        else:
            if slot is not None:
                sizes[slot] = len(sizes) - slot
    return Fragments(tuple(labels), tuple(sizes)) \
        if sizes and sizes[0] == len(sizes) else None


class CachingLXPServer(LXPServer):
    """An LXP proxy answering fills from a :class:`FragmentStore`.

    Stacks directly on the raw wrapper (below the resilience layer, so
    degraded ``<mix:error>`` placeholders are never cached, and above
    nothing else -- the buffer's chase algorithms see byte-identical
    replies either way).

    ``version_of`` is read *fresh on every fill*: the admissibility
    gate guarantees the wrapper advertises ``snapshot_version()``, and
    comparing per fill (rather than per session) is what makes churn
    runs equal to the cache-off interleaving.
    """

    def __init__(self, inner: LXPServer, view_id: str,
                 store: FragmentStore,
                 version_of: Callable[[], object],
                 tracer: Optional[Any] = None) -> None:
        self.inner = inner
        self.view_id = view_id
        self.store = store
        self._version_of = version_of
        self._tracer = tracer
        #: guards the completion-harvest state below
        self._lock = make_lock("fragcache.harvest")
        self._root_id: Optional[object] = None
        self._last_version: Optional[object] = None
        self._replies: Dict[object, Fragments] = {}
        self._outstanding: Optional[Set[object]] = None
        self._harvest_dead = False

    # -- LXPServer ---------------------------------------------------------
    def get_root(self) -> Fragments:
        root = self.inner.get_root()
        with self._lock:
            self._root_id = root.hole_id
        return root

    def fill(self, hole_id: object) -> Fragments:
        tracer = self._tracer
        if tracer is not None and tracer.active:
            with tracer.span("fragcache", "fill", source=self.view_id):
                return self._fill(hole_id, self._observe)
        return self._fill(hole_id, None)

    def _fill(self, hole_id: object, observer: _Observer) -> Fragments:
        version = self._version_of()
        if version != self._last_version:
            self._note_version(version)
        reply = self.store.fill_through(
            (self.view_id, hole_id), version,
            partial(self.inner.fill, hole_id), observer)
        self._harvest(hole_id, reply, version)
        return reply

    # fill_batch is inherited: the pipelined protocol decomposes into
    # per-hole fills, each of which caches through this seam.

    # -- tracing -----------------------------------------------------------
    def _observe(self, outcome: str) -> None:
        """The store's outcomes as trace events (passed to the store
        only while the tracer records)."""
        tracer = self._tracer
        if outcome == "hit":
            tracer.emit("fragcache", "hit", source=self.view_id)
        elif outcome == "miss":
            tracer.emit("fragcache", "miss", source=self.view_id)
        elif outcome == "store":
            tracer.emit("fragcache", "store", source=self.view_id)
        elif outcome == "invalidate":
            tracer.emit("fragcache", "invalidate", source=self.view_id)
        elif outcome == "wait":
            tracer.emit("fragcache", "wait", source=self.view_id)

    # -- epoch tracking ----------------------------------------------------
    def _note_version(self, version: object) -> None:
        """Sweep the view's stale epoch when the snapshot advances
        (called when a fill reads a version other than the last)."""
        with self._lock:
            changed = (self._last_version is not None
                       and self._last_version != version)
            self._last_version = version
            if changed:
                # New epoch: fills recorded so far describe the old
                # snapshot and can never complete into a current view.
                self._replies, self._outstanding = {}, None
                self._harvest_dead = False
        if changed:
            self.store.sweep(self.view_id, version)

    # -- whole-view harvest ------------------------------------------------
    def _harvest(self, hole_id: object, reply: Fragments,
                 version: object) -> None:
        """Track hole accounting; when every introduced hole has been
        filled at one version, assemble and store the complete view."""
        complete: Optional[Fragments] = None
        with self._lock:
            if self._harvest_dead or version != self._last_version:
                return
            outstanding = self._outstanding
            if outstanding is None:
                outstanding = self._outstanding = {
                    hole_id if self._root_id is None else self._root_id}
            if hole_id not in outstanding:
                # A refill of something already accounted (or a hole
                # we never saw introduced): accounting is no longer
                # trustworthy, stop harvesting this epoch.
                self._harvest_dead, self._replies = True, {}
                return
            outstanding.discard(hole_id)
            self._replies[hole_id] = reply
            outstanding.update(reply.holes)
            if not outstanding:
                complete = _assemble(self._root_id, self._replies)
        if complete is not None:
            self.store.store_view(self.view_id, version, complete)
            tracer = self._tracer
            if tracer is not None and tracer.active:
                tracer.emit("fragcache", "complete", source=self.view_id)


# ----------------------------------------------------------------------
# Compile-time admissibility (the pushdown-style decision pass)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FragcacheDecision:
    """One registered wrapper's fate under the admissibility check."""

    url: str
    cached: bool
    reason: str   # "cacheable" | "no-versioned-snapshots" |
    #               "side-effecting-source"
    detail: str

    def as_dict(self) -> Dict[str, object]:
        return {"url": self.url, "cached": self.cached,
                "reason": self.reason, "detail": self.detail}


def admissible(url: str, server: object) -> Tuple[bool, str, str]:
    """Whether ``server``'s export may be cached: ``(ok, reason,
    detail)``.

    The rule, checked entirely before any navigation happens:

    1. the wrapper must advertise ``snapshot_version()`` (presence-
       negotiated, like the push capability) -- without a version
       authority, stale fragments could never be invalidated;
    2. it must not declare ``side_effects`` -- replaying a cached
       fragment would skip whatever the source does per navigation.

    What is cached is the wrapper's export, a bare ``Source(url)``:
    bounded browsable under Definition 2 whatever the wrapper (the
    classifier rates every bare source so), which the detail records.
    """
    version_of = getattr(server, "snapshot_version", None)
    if not callable(version_of):
        return (False, "no-versioned-snapshots",
                "wrapper does not advertise snapshot_version(); "
                "cached fragments could never be invalidated")
    if getattr(server, "side_effects", False):
        return (False, "side-effecting-source",
                "wrapper declares per-navigation side effects; "
                "answering from cache would skip them")
    return (True, "cacheable",
            "versioned side-effect-free export, Definition 2 "
            "class bounded browsable")


def fragment_cached(
        url: str, server: LXPServer,
        store: Optional[FragmentStore] = None,
        tracer: Optional[Any] = None,
) -> Tuple[LXPServer, Optional[Fragments], FragcacheDecision]:
    """Wire one registered wrapper through the fragment cache.

    Runs the admissibility check, records the decision (and emits it
    as a ``fragcache.decision`` event), and -- for admissible wrappers
    -- returns the :class:`CachingLXPServer` proxy plus, when the
    store already holds the complete view at the wrapper's *current*
    snapshot version, its record to adopt through the prefilled
    buffer.
    Inadmissible wrappers come back unchanged.
    """
    if store is None:
        store = shared_store()
    ok, reason, detail = admissible(url, server)
    decision = FragcacheDecision(url, ok, reason, detail)
    if tracer is not None and tracer.active:
        tracer.emit("fragcache", "decision", url=url, cached=ok,
                    reason=reason, detail=detail)
    if not ok:
        return server, None, decision
    version_of = getattr(server, "snapshot_version")
    whole = store.view(url, version_of())
    if whole is not None and tracer is not None and tracer.active:
        tracer.emit("fragcache", "adopt", source=url)
    caching = CachingLXPServer(server, url, store,
                               version_of=version_of, tracer=tracer)
    return caching, whole, decision
