"""The cache registry: every operator cache under one budgeted roof.

The paper notes "the mediator is not completely stateless; some
operators perform much more efficiently by caching parts of their
input" (Section 3).  Those caches -- getDescendants' frontier memos,
the nested-loop join's inner cache (footnote 9), groupBy's ``G_prev``,
the selection verdict memo -- used to be anonymous dicts scattered
through the operators.  :class:`CacheManager` registers them all in
one place, with

* per-cache hit/miss/eviction counters (one aggregated report),
* a global entry budget with LRU eviction across all *memo* caches,
* a single enable/disable switch (the E7 ablation toggle).

Nothing here takes a lock.  One query's operators, and so its caches,
are driven by one thread at a time: the client thread in-process, the
session's handler thread under the daemon, and behind
``connect_remote`` whichever client thread holds the channel's
``client.channel`` lock (see :class:`~repro.server.client.SocketChannel`).

Two cache kinds exist:

``memo`` (the default)
    Pure memoization, re-derivable from structured node-ids (paper
    Fig. 5): safe to evict at any time and bypassed entirely when
    caching is disabled.  Only memo entries count against the budget.

``state``
    Evaluation state the operator semantics rely on (groupBy's
    ``G_prev`` group registry, an explicit Materialize buffer): always
    on, never evicted, reported but exempt from the budget.

The entries belong to the operator that registered the cache; the
manager keeps each cache's name, kind and counters, and reaches the
cache itself only through a budget's LRU tokens.  Entries hold
node-ids, and a value id names its operator, so a registry of the
caches would close a cycle through the query's context: without a
budget a finished query is freed by reference counting instead.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple
from .counters import Counters

__all__ = ["MISS", "CacheStats", "ManagedCache", "CacheManager"]


class _Miss:
    """Sentinel distinguishing 'not cached' from a cached ``None``."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "MISS"


#: Returned by :meth:`ManagedCache.get` when the key is absent (a
#: cached value may legitimately be ``None``).
MISS = _Miss()


@dataclass
class CacheStats(Counters):
    """Counters for one registered cache (or one aggregated label);
    confined to the query's navigating thread."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


class ManagedCache:
    """One registered cache: a dict-like memo owned by a manager.

    ``get``/``put`` count hits and misses; ``peek`` is a stats-silent
    probe for internal bookkeeping (it still refreshes recency).  When
    the manager is disabled, a *memo* cache is a full bypass: ``get``
    always returns the default (uncounted) and ``put`` is a no-op --
    exactly the old ``cache_enabled=False`` behaviour.  *State* caches
    ignore the switch.

    What a lookup has to do is settled at registration (the manager's
    switch and budget are fixed for the query): whether the cache is a
    bypass, and whether its entries are *ranked* -- a memo under a
    budget keeps a recency token per entry in the manager's LRU; with
    no budget nothing is ever evicted, recency is unobservable, and a
    lookup is one ``dict.get``.
    """

    __slots__ = ("manager", "name", "kind", "stats", "_data",
                 "_bypass", "_ranked")

    def __init__(self, manager: "CacheManager", name: str,
                 kind: str) -> None:
        if kind not in ("memo", "state"):
            raise ValueError("unknown cache kind %r" % kind)
        self.manager = manager
        self.name = name
        self.kind = kind
        self.stats = CacheStats()
        self._data: Dict[Hashable, object] = {}
        self._bypass = kind == "memo" and not manager.enabled
        self._ranked = kind == "memo" and manager.budget is not None

    def get(self, key: Hashable, default: object = MISS) -> object:
        """The cached value for ``key``, else ``default`` (counted)."""
        if self._bypass:
            return default
        value = self._data.get(key, MISS)
        if value is MISS:
            self.stats.misses += 1
            return default
        self.stats.hits += 1
        if self._ranked:
            self.manager._lru.move_to_end((self, key))
        return value

    def peek(self, key: Hashable, default: object = MISS) -> object:
        """Like :meth:`get` but without touching the counters."""
        if self._bypass:
            return default
        value = self._data.get(key, MISS)
        if value is MISS:
            return default
        if self._ranked:
            self.manager._lru.move_to_end((self, key))
        return value

    def put(self, key: Hashable, value: object) -> None:
        """Store ``key`` -> ``value`` (may trigger evictions)."""
        if self._bypass:
            return
        data = self._data
        if key not in data:
            self.stats.entries += 1
        data[key] = value
        if self._ranked:
            self.manager._rank(self, key)

    def _evict(self, key: Hashable) -> None:
        del self._data[key]
        self.stats.entries -= 1
        self.stats.evictions += 1


class CacheManager:
    """The per-query registry of every operator cache.

    ``budget`` bounds the number of live *memo* entries across all
    registered caches; inserting past the budget evicts the globally
    least-recently-used memo entry.  ``enabled=False`` turns every
    memo cache into a bypass (state caches keep working -- they are
    semantics, not optimization).  Both are fixed at construction:
    each registered cache reads them once.

    Lookups, inserts, LRU motion and evictions run on the query's one
    navigating thread, so they take no lock; :meth:`report` and
    :meth:`as_dict` read without synchronisation, as
    :meth:`~repro.runtime.counters.Counters.as_dict` does.
    """

    def __init__(self, budget: Optional[int] = None,
                 enabled: bool = True) -> None:
        if budget is not None and budget < 0:
            raise ValueError("budget must be >= 0 or None")
        self.budget = budget
        self.enabled = enabled
        #: ``(name, kind, counters)`` per registered cache: what the
        #: reports read, kept after the cache's operator is gone
        self._registered: List[Tuple[str, str, CacheStats]] = []
        #: global LRU over memo entries, kept only under a budget:
        #: (cache, key) -> None, one token per live entry
        self._lru: "OrderedDict" = OrderedDict()
        self.evictions = 0

    # -- registration -----------------------------------------------------
    def cache(self, name: str, kind: str = "memo") -> ManagedCache:
        """Register (and return) a new cache under ``name``.

        Multiple registrations may share a name (one per operator
        instance); :meth:`report` aggregates them by name.
        """
        managed = ManagedCache(self, name, kind)
        self._registered.append((name, kind, managed.stats))
        return managed

    # -- LRU bookkeeping ---------------------------------------------------
    def _rank(self, cache: ManagedCache, key: Hashable) -> None:
        """Make ``key`` of memo cache ``cache`` the most recent entry,
        then evict down to the budget (only called when there is a
        budget)."""
        lru = self._lru
        token = (cache, key)
        if token in lru:
            lru.move_to_end(token)
        else:
            lru[token] = None
        budget = self.budget
        while budget is not None and len(lru) > budget:
            victim, victim_key = lru.popitem(last=False)[0]
            victim._evict(victim_key)
            self.evictions += 1

    # -- reporting ---------------------------------------------------------
    @property
    def memo_entries(self) -> int:
        """Live memo entries (the budgeted quantity)."""
        return sum(s.entries for _, k, s in self._registered if k == "memo")

    @property
    def state_entries(self) -> int:
        return sum(s.entries for _, k, s in self._registered if k == "state")

    def report(self) -> "Dict[str, CacheStats]":
        """Counters aggregated by cache name."""
        merged: Dict[str, CacheStats] = {}
        for name, _, stats in self._registered:
            merged[name] = merged.get(name, CacheStats()) + stats
        return merged

    def totals(self) -> CacheStats:
        """All counters summed over every registered cache."""
        total = CacheStats()
        for _, _, stats in self._registered:
            total = total + stats
        return total

    def as_dict(self) -> dict:
        """The full registry report as plain dicts (for stats/JSON)."""
        return {
            "enabled": self.enabled,
            "budget": self.budget,
            "memo_entries": self.memo_entries,
            "state_entries": self.state_entries,
            "evictions": self.evictions,
            "caches": {name: stats.as_dict()
                       for name, stats in sorted(self.report().items())},
        }
