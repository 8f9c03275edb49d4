"""Cross-session fragment cache: reuse fragments other sessions paid for.

The paper's lazy mediator pays sources *per navigation*, and every
cost it pays is for an immutable fragment of some source's exported
view.  Yet each session historically rebuilt its virtual view from
scratch: the operator caches on the
:class:`~repro.runtime.context.ExecutionContext` are strictly
per-execution.  This module adds the missing tier -- a process-wide
:class:`FragmentStore`, sharded by hash of ``(view_id, region)``,
holding the immutable fill replies previous sessions already paid a
source for, tagged with the source snapshot version they were derived
from.

Three pieces:

* :class:`FragmentStore` -- the sharded store.  Each shard has its own
  lock, an entry table keyed by ``(view_id, hole_id)``, a whole-view
  table keyed by ``view_id``, and a single-flight table so concurrent
  sessions missing on the same region issue exactly one source fill.
  Entries are version-tagged; a lookup presenting a newer source
  version drops the stale entry (counted as an invalidation), and
  :meth:`FragmentStore.sweep` drops a view's whole stale epoch at
  once.
* :class:`CachingLXPServer` -- the seam proxy.  It sits between the
  generic buffer and the (possibly resilience-wrapped) wrapper:
  ``fill`` consults the store before touching the source, keyed by the
  wrapper's *stateless* hole ids and the wrapper's current
  ``snapshot_version()``.  When a session's fills resolve every hole
  the server ever introduced, the complete view is assembled and
  stored, so the next session adopts it through
  :meth:`~repro.buffer.component.BufferComponent.prefilled` -- the
  hole-free fast path -- without a single source navigation.
* :func:`admissible` / :class:`FragcacheDecision` -- the
  pushdown-style compile-time admissibility check: only *versioned*,
  *side-effect-free*, Definition-2-*browsable* exports are cacheable.
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
import zlib
from dataclasses import dataclass
from typing import (Any, Callable, Dict, List, Optional, Sequence,
                    Set, Tuple)

from ..buffer.holes import FragHole, Fragment
from ..buffer.lxp import LXPServer, reply_holes
from ..xtree.tree import Tree
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


@dataclass(frozen=True)
class _Entry:
    """One cached fill reply, tagged with its source snapshot."""

    fragments: Tuple[Fragment, ...]
    version: object


@dataclass(frozen=True)
class _ViewEntry:
    """One complete materialized view, tagged with its snapshot."""

    tree: Tree
    version: object


class _Shard:
    """One lock domain of the store.

    All three tables live under one per-shard lock; cross-shard
    operations take shard locks strictly one at a time, so there is no
    lock ordering to get wrong.
    """

    def __init__(self) -> None:
        self.lock = make_lock("fragcache.shard")
        self.entries: Dict[FragmentKey, _Entry] = {}
        self.views: Dict[str, _ViewEntry] = {}
        self.inflight: Dict[FragmentKey, threading.Event] = {}


#: observer callback: outcome name -> None (tracing seam)
_Observer = Optional[Callable[[str], None]]


def shard_index(key: FragmentKey, shards: int) -> int:
    """The shard a key lands in: crc32 of its repr, mod the shard
    count.  Deterministic across processes and runs, so tests can
    craft deliberately colliding keys."""
    return zlib.crc32(repr(key).encode("utf-8")) % shards


class FragmentStore:
    """A process-wide sharded store of immutable view fragments.

    Fragments (:class:`~repro.buffer.holes.FragElem` /
    :class:`~repro.buffer.holes.FragHole`) are frozen dataclasses, so
    entries are shared across sessions without copying; the store
    never hands out anything a caller could mutate.

    ``shards`` picks the number of independent lock domains; 1 is
    legal (every key collides -- the stress tests use it).
    """

    def __init__(self, shards: int = 16) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.stats = FragcacheStats()
        self._shards: Tuple[_Shard, ...] = tuple(
            _Shard() for _ in range(shards))

    @property
    def shards(self) -> int:
        return len(self._shards)

    def _shard_of(self, key: FragmentKey) -> _Shard:
        return self._shards[shard_index(key, len(self._shards))]

    # -- the demand path ---------------------------------------------------
    def fill_through(self, key: FragmentKey, version: object,
                     producer: Callable[[], Sequence[Fragment]],
                     observer: _Observer = None) -> List[Fragment]:
        """Serve ``key`` at ``version`` from the store, or produce it.

        The single-flight contract: when several sessions miss on the
        same key concurrently, exactly one runs ``producer`` (one
        source fill); the rest wait on the filler's event and then
        read the stored entry.  A failing producer releases its
        waiters, and the first of them becomes the next producer.

        Every call counts exactly one hit or one miss; a stale entry
        (version mismatch) additionally counts one invalidation before
        the miss.
        """
        shard = self._shard_of(key)
        while True:
            # Observer callbacks are foreign code: collect outcomes
            # under the lock, invoke them after it is released (the
            # entry check and in-flight registration stay atomic).
            outcomes: List[str] = []
            hit: Optional[List[Fragment]] = None
            waiter = None
            with shard.lock:
                entry = shard.entries.get(key)
                if entry is not None:
                    if entry.version == version:
                        self.stats.bump("hits")
                        outcomes.append("hit")
                        hit = list(entry.fragments)
                    else:
                        # The source snapshot advanced past this
                        # entry: drop it and fall through to a
                        # producing miss.
                        del shard.entries[key]
                        self.stats.bump("invalidations")
                        outcomes.append("invalidate")
                if hit is None:
                    waiter = shard.inflight.get(key)
                    if waiter is None:
                        event = threading.Event()
                        shard.inflight[key] = event
            if observer is not None:
                for outcome in outcomes:
                    observer(outcome)
            if hit is not None:
                return hit
            if waiter is None:
                break
            # Another session is filling this key: wait outside the
            # lock, then re-check the entry table from the top.
            self.stats.bump("single_flight_waits")
            if observer is not None:
                observer("wait")
            waiter.wait()
        try:
            fragments = tuple(producer())
        except BaseException:
            with shard.lock:
                del shard.inflight[key]
            event.set()
            raise
        self.stats.bump("misses")
        if observer is not None:
            observer("miss")
        with shard.lock:
            shard.entries[key] = _Entry(fragments, version)
            del shard.inflight[key]
        self.stats.bump("stores")
        if observer is not None:
            observer("store")
        event.set()
        return list(fragments)

    # -- whole views -------------------------------------------------------
    def store_view(self, view_id: str, version: object,
                   tree: Tree) -> None:
        """Record the complete materialized view at ``version``."""
        shard = self._shard_of((view_id, None))
        with shard.lock:
            shard.views[view_id] = _ViewEntry(tree, version)
        self.stats.bump("view_stores")

    def view(self, view_id: str, version: object) -> Optional[Tree]:
        """The complete view at exactly ``version``, if stored.

        A stale whole-view entry is dropped (counted as an
        invalidation), never returned: adoption through the prefilled
        buffer must be snapshot-exact.
        """
        shard = self._shard_of((view_id, None))
        stale = False
        found: Optional[Tree] = None
        with shard.lock:
            entry = shard.views.get(view_id)
            if entry is not None:
                if entry.version == version:
                    found = entry.tree
                else:
                    del shard.views[view_id]
                    stale = True
        if stale:
            self.stats.bump("invalidations")
        if found is not None:
            self.stats.bump("view_adoptions")
        return found

    # -- epoch invalidation ------------------------------------------------
    def sweep(self, view_id: str, current_version: object) -> int:
        """Drop every entry of ``view_id`` whose version is not
        ``current_version`` (the version-epoch invalidation sweep).
        Returns how many entries were dropped."""
        dropped = 0
        for shard in self._shards:
            with shard.lock:
                stale_keys = [
                    key for key, entry in shard.entries.items()
                    if key[0] == view_id
                    and entry.version != current_version]
                for key in stale_keys:
                    del shard.entries[key]
                dropped += len(stale_keys)
                view = shard.views.get(view_id)
                if view is not None \
                        and view.version != current_version:
                    del shard.views[view_id]
                    dropped += 1
        self.stats.bump("invalidations", dropped)
        return dropped

    def clear(self) -> None:
        """Drop every entry (counters keep their history)."""
        for shard in self._shards:
            with shard.lock:
                shard.entries.clear()
                shard.views.clear()

    def entry_count(self) -> int:
        """Live fragment entries across all shards (tests/diagnostics)."""
        total = 0
        for shard in self._shards:
            with shard.lock:
                total += len(shard.entries)
        return total


# ----------------------------------------------------------------------
# The process-wide shared store
# ----------------------------------------------------------------------

_shared_lock = make_lock("fragcache.store")
_shared: Optional[FragmentStore] = None


def shared_store() -> FragmentStore:
    """The process-wide store every mediator shares by default, so a
    server daemon's sessions -- and successive in-process mediators --
    reuse each other's fragments."""
    global _shared
    with _shared_lock:
        if _shared is None:
            _shared = FragmentStore()
        return _shared


def reset_shared_store() -> None:
    """Forget the shared store (test isolation)."""
    global _shared
    with _shared_lock:
        _shared = None


# ----------------------------------------------------------------------
# The caching seam
# ----------------------------------------------------------------------

def _expand(fragments: Sequence[Fragment],
            replies: Dict[object, Tuple[Fragment, ...]]) -> List[Tree]:
    """``fragments`` as trees, each hole replaced by the expansion of
    its recorded reply (KeyError: a hole with none)."""
    out: List[Tree] = []
    for fragment in fragments:
        if isinstance(fragment, FragHole):
            out.extend(_expand(replies[fragment.hole_id], replies))
        else:
            out.append(Tree(fragment.label,
                            _expand(fragment.children, replies)))
    return out


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
        self._replies: Dict[object, Tuple[Fragment, ...]] = {}
        self._outstanding: Optional[Set[object]] = None
        self._harvest_dead = False

    # -- LXPServer ---------------------------------------------------------
    def get_root(self) -> FragHole:
        root = self.inner.get_root()
        with self._lock:
            self._root_id = root.hole_id
        return root

    def fill(self, hole_id: object) -> List[Fragment]:
        tracer = self._tracer
        if tracer is not None and tracer.active:
            with tracer.span("fragcache", "fill", source=self.view_id):
                return self._fill(hole_id)
        return self._fill(hole_id)

    def _fill(self, hole_id: object) -> List[Fragment]:
        version = self._version_of()
        self._note_version(version)
        reply = self.store.fill_through(
            (self.view_id, hole_id), version,
            lambda: self.inner.fill(hole_id),
            observer=self._observe)
        self._harvest(hole_id, tuple(reply), version)
        return reply

    # fill_batch is inherited: the pipelined protocol decomposes into
    # per-hole fills, each of which caches through this seam.

    # -- tracing -----------------------------------------------------------
    def _observe(self, outcome: str) -> None:
        tracer = self._tracer
        if tracer is None or not tracer.active:
            return
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
        """Sweep the view's stale epoch when the snapshot advances."""
        with self._lock:
            changed = (self._last_version is not None
                       and self._last_version != version)
            self._last_version = version
            if changed:
                # New epoch: fills recorded so far describe the old
                # snapshot and can never complete into a current view.
                self._replies.clear()
                self._outstanding = None
                self._harvest_dead = False
        if changed:
            self.store.sweep(self.view_id, version)

    # -- whole-view harvest ------------------------------------------------
    def _harvest(self, hole_id: object,
                 reply: Tuple[Fragment, ...],
                 version: object) -> None:
        """Track hole accounting; when every introduced hole has been
        filled at one version, assemble and store the complete view."""
        complete: Optional[Tree] = None
        with self._lock:
            if self._harvest_dead or version != self._last_version:
                return
            if self._outstanding is None:
                start = self._root_id if self._root_id is not None \
                    else hole_id
                self._outstanding = {start}
            if hole_id not in self._outstanding:
                # A refill of something already accounted (or a hole
                # we never saw introduced): accounting is no longer
                # trustworthy, stop harvesting this epoch.
                self._harvest_dead = True
                self._replies.clear()
                return
            self._outstanding.discard(hole_id)
            self._replies[hole_id] = reply
            self._outstanding.update(reply_holes(list(reply)))
            if not self._outstanding:
                complete = self._assemble_locked()
        if complete is not None:
            self.store.store_view(self.view_id, version, complete)
            tracer = self._tracer
            if tracer is not None and tracer.active:
                tracer.emit("fragcache", "complete",
                            source=self.view_id)

    def _assemble_locked(self) -> Optional[Tree]:
        """The complete view tree from the recorded replies (called
        under the lock; pure)."""
        root_id = self._root_id
        if root_id is None or root_id not in self._replies:
            return None
        try:
            elements = _expand(self._replies[root_id], self._replies)
        except KeyError:
            return None
        if len(elements) != 1:
            return None
        return elements[0]


# ----------------------------------------------------------------------
# Compile-time admissibility (the pushdown-style decision pass)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FragcacheDecision:
    """One registered wrapper's fate under the admissibility check."""

    url: str
    cached: bool
    reason: str   # "cacheable" | "no-versioned-snapshots" |
    #               "side-effecting-source" | "not-browsable"
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
       fragment would skip whatever the source does per navigation;
    3. its export must be browsable under Definition 2 -- the same
       classifier the rewriter and the static analyzer use.  A bare
       source export is bounded browsable; the check runs the real
       classifier rather than assuming it.
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
    from ..algebra.operators import Source
    from ..rewriter.analyzer import classify_plan
    from ..navigation.complexity import Browsability
    cls = classify_plan(Source(url, "v"))
    if cls == Browsability.UNBROWSABLE:
        return (False, "not-browsable",
                "export classified %s under Definition 2" % cls)
    return (True, "cacheable",
            "versioned side-effect-free export, Definition 2 "
            "class %s" % cls)


def fragment_cached(
        url: str, server: LXPServer,
        store: Optional[FragmentStore] = None,
        tracer: Optional[Any] = None,
) -> Tuple[LXPServer, Optional[Tree], FragcacheDecision]:
    """Wire one registered wrapper through the fragment cache.

    Runs the admissibility check, records the decision (and emits it
    as a ``fragcache.decision`` event), and -- for admissible wrappers
    -- returns the :class:`CachingLXPServer` proxy plus, when the
    store already holds the complete view at the wrapper's *current*
    snapshot version, the tree to adopt through the prefilled buffer.
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
