"""The generic buffer component (paper Section 4, Figure 8).

Sits between a lazy mediator and a wrapper: answers DOM-VXD
navigations from its open tree when it can, and issues LXP ``fill``
requests when a navigation hits a hole.  One implementation serves
every wrapper -- the modularity argument of the refined VXD
architecture ("instead of having each wrapper handle its own buffering
needs ... a separate generic buffer component").

The open tree is kept as node tables: parallel lists with one entry
per node -- its label (``None`` for a hole), first child, right and
left sibling, and parent -- so a pointer is a node number, ``down``,
``right`` and ``fetch`` each read one entry, and a splice appends the
reply's nodes and relinks the hole's neighbours.  Nothing points back
at the buffer, so a finished query's open tree is freed by reference
counting.

The ``down``/``right`` implementations are the chase algorithms of
Figure 8, generalized to the most liberal LXP replies: fills may return
holes at arbitrary positions, so the chase loops until it reaches an
element or proves there is none, splicing fragments and dropping empty
holes as it goes.

Fill policies
-------------

What the buffer fetches *beyond* the hole a navigation demanded is a
policy -- the paper's "decouple the client-driven view navigation
('pull from above') and the production of results by the wrapped
source ('push from below')" -- fixed at construction and acted on in
two places: :meth:`BufferComponent._fill_hole` (how a demanded hole is
resolved) and :meth:`BufferComponent._look_ahead` (what follows once
that fill has landed).  Only a landed fill changes the set of
outstanding holes, so nothing is scheduled per navigation and a hit
costs the same under every policy.  DESIGN.md ("Fill policies")
compares them.

*demand only* (default): one ``fill`` per demanded hole.

*look-ahead* (``lookahead > 0``): the deterministic model of
experiment E5 -- after a demand fill, up to ``lookahead`` further
holes are filled, leftmost first (the direction a forward-browsing
client needs next), and spliced at once; only the next demand fill
renews the budget.  Every fill runs on the navigating thread, so a
failed look-ahead fill raises at the navigation that scheduled it.

*batched* (``batch=True``): the demand fill ships as one
``fill_batch`` exchange carrying up to ``lookahead`` server-side
speculative fills.  Replies are addressed by hole id; one whose hole
is no longer outstanding is dropped.

The open tree and the answer are the same under every policy; only
the timing and the classification of fills differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..navigation.interface import NavigableDocument
from .holes import (
    Fragments,
    HoleIndex,
    LXPProtocolError,
    validate_fill_reply,
)
from .lxp import LXPServer
from ..runtime.counters import Counters
from ..runtime.locks import make_rlock

__all__ = ["BufferComponent", "BufferStats", "PrefetchStats",
           "BatchStats"]


class _PrefilledServer(LXPServer):
    """The degenerate server behind a pre-filled buffer.

    Its root hole is replaced before any navigation can observe it, so
    a fill request can only mean the adopted subtree was wrong --
    which is a protocol error, never silently fabricated data.
    """

    def get_root(self) -> Fragments:
        return Fragments.hole(("prefilled",))

    def fill(self, hole_id: object):
        raise LXPProtocolError(
            "prefilled buffer has no holes to fill (got %r)" % (hole_id,))


@dataclass
class BufferStats(Counters):
    """Hit/miss accounting for one buffer (guarded by the buffer's
    ``buffer.component`` lock)."""

    navigations: int = 0
    hits: int = 0
    fills: int = 0

    @property
    def hit_rate(self) -> float:
        if self.navigations == 0:
            return 1.0
        return self.hits / self.navigations


@dataclass
class PrefetchStats(Counters):
    """Demand/prefetch fill split: every fill is one or the other."""

    demand_fills: int = 0
    prefetch_fills: int = 0


@dataclass
class BatchStats(Counters):
    """Accounting for the batched policy.

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


class BufferComponent(NavigableDocument):
    """A NavigableDocument over an LXP wrapper, backed by an open tree.

    Pointers are node numbers (``int``) into the buffer's node tables.
    The open tree only ever grows/refines: a node keeps its number for
    the buffer's lifetime, so handed-out pointers stay valid.

    ``lookahead`` fills may run ahead of what the client demanded,
    after each demand fill or inside the demand exchange when
    ``batch`` -- the fill policies of the module docstring.  Both off
    is the plain demand-only buffer.
    """

    def __init__(self, server: LXPServer, lookahead: int = 0,
                 batch: bool = False, tracer=None, name: str = ""):
        if lookahead < 0:
            raise ValueError("lookahead must be >= 0")
        self.server = server
        self.lookahead = lookahead
        self.batch = batch
        self.stats = BufferStats()
        self.prefetch_stats = PrefetchStats()
        self.batch_stats = BatchStats()
        #: optional tracer + buffer name: demand fills become
        #: ``buffer.fill`` spans in the causal trace, so the source
        #: commands and round trips a fill provokes nest under it
        self.tracer = tracer
        self.name = name
        self._root: Optional[int] = None
        #: the open tree, one entry per node: its label (None: a hole),
        #: first child, right and left sibling, and parent (None: there
        #: is none).  Node 0 is a virtual ``#top`` whose children are
        #: the root element -- node 1 is its hole before the first fill
        #: -- so no pointer handed out is 0.  A filled hole's entry is
        #: left in place, unlinked, and never reused.
        self._label: List[Optional[str]] = ["#top", None]
        self._first: List[Optional[int]] = [1, None]
        self._next: List[Optional[int]] = [None, None]
        self._prev: List[Optional[int]] = [None, None]
        self._parent: List[Optional[int]] = [None, 0]
        root_id = server.get_root().hole_id
        #: the wrapper's id of each outstanding hole, by node
        self._hole_ids: Dict[int, object] = {1: root_id}
        #: the outstanding holes in order, kept only when a policy
        #: reads them
        self._holes: Optional[HoleIndex] = (
            HoleIndex(1, root_id) if lookahead or batch else None)
        #: guards the node tables, the hole index and the fill
        #: counters: a buffer under a registered wrapper is shared by
        #: the daemon's concurrent sessions.  It is re-entrant because
        #: a splice happens inside a navigation that already holds it.
        self._lock = make_rlock("buffer.component")

    @classmethod
    def prefilled(cls, fragments: Fragments, tracer=None,
                  name: str = "") -> "BufferComponent":
        """A buffer whose open tree is ``fragments``, one hole-free
        root element.

        This is how a pushed source-native result (see
        :func:`~repro.buffer.holes.fragment_of_tree`) and a whole
        view from the fragment cache enter the navigation stack: the
        complete reply is adopted with the graft every fill takes, so
        every later navigation is a buffer hit and no fill (hence no
        source navigation) can ever happen.
        """
        buffer = cls(_PrefilledServer(), tracer=tracer, name=name)
        # No lock: the buffer is thread-confined until returned (the
        # same reasoning that exempts __init__).  The reply takes the
        # root hole's place before anyone can see it.
        buffer._hole_ids.clear()
        # lint: allow=L002
        buffer._first[0] = buffer._graft_locked(fragments, 0)
        return buffer

    # -- splicing --------------------------------------------------------
    def _splice(self, hole: int, fragments) -> None:
        """Replace ``hole`` in the open tree by ``fragments``.

        The one mutation point of the open tree: every fill reply --
        demanded, prefetched, batched or speculative -- lands here.
        """
        validate_fill_reply(fragments)
        with self._lock:
            self.stats.fills += 1
            label, first, nxt, prev = (self._label, self._first,
                                       self._next, self._prev)
            hole_id = self._hole_ids.pop(hole)
            parent, before, after = self._parent[hole], prev[hole], \
                nxt[hole]
            start = len(label)
            tail = self._graft_locked(fragments, parent)
            if tail is None:    # a dead end: the hole just goes
                head, tail = after, before
            else:
                head = start
                prev[head] = before
                nxt[tail] = after
            if before is None:
                first[parent] = head
            else:
                nxt[before] = head
            if after is not None:
                prev[after] = tail
            if self._holes is not None:
                self._holes.replace(hole, hole_id, zip(
                    [node for node in range(start, len(label))
                     if label[node] is None], fragments.holes))

    def _graft_locked(self, fragments: Fragments,
                      parent: int) -> Optional[int]:
        """Append a reply to the node tables as a run of siblings
        under ``parent``, in its own preorder (so an element's first
        child is the next node): one loop over the record, a stack of
        the enclosing runs.  Returns the run's last node, None when
        it is empty; linking the run's ends is the caller's."""
        label, first, nxt, prev, up = (self._label, self._first,
                                       self._next, self._prev,
                                       self._parent)
        holes = iter(fragments.holes)
        start = len(label)
        label.extend(fragments.labels)
        add_next, add_prev, add_up, add_first = (
            nxt.append, prev.append, up.append, first.append)
        #: the runs left open above: (end, parent, the element)
        runs: list = []
        end = len(label)
        last: Optional[int] = None
        for node, size in enumerate(fragments.sizes, start):
            while node == end:
                end, parent, last = runs.pop()
            after = node + size
            add_next(after if after < end else None)
            add_prev(last)
            add_up(parent)
            if label[node] is None:
                self._hole_ids[node] = next(holes)
            elif size > 1:
                add_first(node + 1)
                runs.append((end, parent, node))
                end, parent, last = after, node, None
                continue
            add_first(None)
            last = node
        return runs[0][2] if runs else last

    # -- the fill policy -------------------------------------------------
    def _fill_hole(self, hole: int) -> None:
        """Resolve a *demanded* hole the way the policy says, then
        look ahead (the caller holds the lock)."""
        tracer = self.tracer
        if tracer is None or not tracer.active:
            self._demand(hole)
        else:
            with tracer.span("buffer", "fill", buffer=self.name):
                self._demand(hole)
        self.prefetch_stats.demand_fills += 1
        if self.lookahead and not self.batch:
            self._look_ahead()

    def _demand(self, hole: int) -> None:
        """One exchange with the server for ``hole``: a ``fill``, or a
        ``fill_batch`` whose speculative replies are spliced too."""
        hole_id = self._hole_ids[hole]
        if not self.batch:
            self._splice(hole, self.server.fill(hole_id))
            return
        replies = self.server.fill_batch([hole_id], self.lookahead)
        stats = self.batch_stats
        stats.batches += 1
        answered = False
        for reply_id, fragments in replies:
            target = self._holes.get(reply_id)
            if target is None:
                stats.dropped_replies += 1
                continue
            if target == hole:
                answered = True
            else:
                stats.speculative_fills += 1
            self._splice(target, fragments)
        if not answered:
            raise LXPProtocolError(
                "batch reply omitted the requested hole %r"
                % (hole_id,))

    def _prefetch_fill(self, hole_id):
        """A look-ahead fill's source I/O."""
        tracer = self.tracer
        if tracer is None or not tracer.active:
            return self.server.fill(hole_id)
        with tracer.span("buffer", "prefetch_fill", buffer=self.name):
            return self.server.fill(hole_id)

    def _look_ahead(self) -> None:
        """A demanded fill has landed: fetch ahead of the client.

        The one scheduling point.  Only a landed fill changes the set
        of outstanding holes, so this runs per demand fill, never per
        navigation.
        """
        lookahead = self.lookahead
        hole_ids = self._hole_ids
        ahead = 0
        while ahead < lookahead:
            holes = self._holes.leftmost(lookahead - ahead)
            if not holes:
                return
            for hole in holes:
                self._splice(hole, self._prefetch_fill(hole_ids[hole]))
                self.prefetch_stats.prefetch_fills += 1
                ahead += 1

    def _chase(self, link: List[Optional[int]],
               pointer: int) -> Optional[int]:
        """The first element reached through ``link[pointer]`` (the
        ``first`` or ``next`` table), filling holes as needed (Figure
        8's chase, iterative).  A fill relinks the hole's left
        neighbour, so the link is re-read after each."""
        label = self._label
        node = link[pointer]
        while node is not None:
            if label[node] is not None:
                return node
            self._fill_hole(node)
            node = link[pointer]
        return None

    # -- NavigableDocument ---------------------------------------------------
    def root(self) -> int:
        """The root element pointer.

        Note: resolving the root may require the first fill -- LXP's
        ``get_root`` only returns a hole.  The overall architecture's
        "handle without source access" property is preserved one level
        up: the *mediator* does not call this until the client
        navigates.
        """
        with self._lock:
            if self._root is None:
                self.stats.navigations += 1
                # demand fills run under the open-tree lock by
                # design; see BLOCKING_HOLD_ALLOWED
                # lint: allow=L011,L012
                root = self._chase(self._first, 0)
                if root is None:
                    raise LXPProtocolError(
                        "wrapper shipped no root element")
                self._root = root
            return self._root

    # ``down`` and ``right`` answer from the open tree as it stands
    # when the adjacent node is an element (or there is none): that is
    # a hit, settled without entering the chase.  Only a hole in the
    # way starts the chase -- and the fills it makes.
    def down(self, pointer: int) -> Optional[int]:
        with self._lock:
            stats = self.stats
            stats.navigations += 1
            node = self._first[pointer]
            if node is None or self._label[node] is not None:
                stats.hits += 1
                return node
            # demand fills run under the open-tree lock by
            # design; see BLOCKING_HOLD_ALLOWED
            # lint: allow=L011,L012
            return self._chase_counted(self._first, pointer)

    def right(self, pointer: int) -> Optional[int]:
        with self._lock:
            stats = self.stats
            stats.navigations += 1
            node = self._next[pointer]
            if node is None or self._parent[pointer] == 0:
                # The root element has no siblings (the wrapper exports
                # a single root; trailing nodes beside it are not
                # chased).
                stats.hits += 1
                return None
            if self._label[node] is not None:
                stats.hits += 1
                return node
            # demand fills run under the open-tree lock by
            # design; see BLOCKING_HOLD_ALLOWED
            # lint: allow=L011,L012
            return self._chase_counted(self._next, pointer)

    def _chase_counted(self, link: List[Optional[int]],
                       pointer: int) -> Optional[int]:
        """:meth:`_chase` for a navigation (the caller holds the
        lock): still a hit when the chase made no fill."""
        before = self.stats.fills
        result = self._chase(link, pointer)
        if self.stats.fills == before:
            self.stats.hits += 1
        return result

    def fetch(self, pointer: int) -> str:
        # Labels always travel with their elements: a fetch never
        # triggers a fill.
        with self._lock:
            self.stats.navigations += 1
            self.stats.hits += 1
            return self._label[pointer]

    # -- inspection -------------------------------------------------------
    def holes_outstanding(self) -> int:
        """The holes left under the root element (anywhere, before the
        first fill)."""
        with self._lock:
            top = self._root or 0
            parent = self._parent
            count = 0
            for node in self._hole_ids:
                # a parent's number is lower than its children's
                while node > top:
                    node = parent[node]
                count += node == top
            return count
