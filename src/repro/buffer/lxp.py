"""The Lean XML Fragment Protocol (LXP) -- paper Section 4.

Two commands only::

    get_root(uri)   ->  hole[id]          establish the connection
    fill(hole[id])  ->  fragments         explore the part the hole
                                          represents

The wrapper decides the reply granularity: one node, a chunk of
siblings, a whole subtree, or any liberal mix with holes at arbitrary
(non-adjacent) positions.  This module provides the server interface,
a reference server over in-memory trees with configurable granularity
policies, and a randomized liberal server used by the property tests
to hammer the buffer's chase algorithms.  A reply is one flat
:class:`~repro.buffer.holes.Fragments` record, appended in preorder.

Hole identifiers are *stateless* where possible (the MIXm relational
wrapper's ``db.table.row`` scheme): ``TreeLXPServer`` encodes
``(path, lo, hi)`` -- the represented sublist of children -- directly
in the id, so the server keeps no per-hole table.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..runtime.config import validate_granularity
from ..xtree.tree import Tree
from .holes import (Fragments, LXPProtocolError, append_hole,
                    append_trees)
from ..runtime.counters import Counters

__all__ = ["LXPServer", "LXPStats", "TreeLXPServer",
           "AdaptiveTreeLXPServer", "RandomizedLXPServer",
           "measure_fragment", "reply_holes"]


@dataclass
class LXPStats(Counters, shared=True):
    """Traffic accounting for one LXP connection.

    Self-locked: a registered wrapper serves every concurrent
    session of the daemon, and reporters read its counters while
    fills land."""

    fills: int = 0
    elements_shipped: int = 0
    holes_shipped: int = 0


def reply_holes(fragments: Fragments) -> Tuple[object, ...]:
    """The hole ids of a fill reply, in document order.

    The speculation loop of :meth:`LXPServer.fill_batch` uses this to
    grow its frontier."""
    return fragments.holes


class LXPServer:
    """Interface every LXP wrapper implements."""

    def get_root(self) -> Fragments:
        """A one-hole reply standing for the (not yet shipped) root
        element."""
        raise NotImplementedError

    def fill(self, hole_id) -> Fragments:
        """Explore the part of the source the hole represents."""
        raise NotImplementedError

    def fill_batch(self, hole_ids: Sequence[object],
                   speculate: int = 0
                   ) -> List[Tuple[object, Fragments]]:
        """Answer a *batch* of fill commands in one exchange.

        The pipelined form of LXP: the client ships every outstanding
        hole id it wants resolved and receives one multi-fragment
        reply -- a list of ``(hole_id, fragments)`` pairs, the
        requested ids first, in request order.

        ``speculate`` additionally lets the server keep going on its
        own: after answering the requested ids it may fill up to
        ``speculate`` of the holes *its own replies* introduced
        (frontier order, i.e. document order of discovery).  That
        collapses a forward scan's chain of dependent round trips --
        the reply to chunk *n* names the hole for chunk *n+1*, which
        the server resolves before the client ever asks.

        Each answered hole still counts as one LXP command in
        :class:`LXPStats` (via :func:`measure_fragment` inside
        ``fill``); what batching saves is *round trips*, accounted by
        the transport.  The default implementation is expressed in
        terms of :meth:`fill`, so every wrapper speaks the batched
        protocol for free.
        """
        if speculate < 0:
            raise LXPProtocolError("speculate must be >= 0")
        replies: List[Tuple[object, Fragments]] = []
        frontier: "deque" = deque()
        answered = set()
        for hole_id in hole_ids:
            reply = self.fill(hole_id)
            replies.append((hole_id, reply))
            answered.add(hole_id)
            frontier.extend(reply.holes)
        budget = speculate
        while budget > 0 and frontier:
            hole_id = frontier.popleft()
            if hole_id in answered:
                continue
            reply = self.fill(hole_id)
            replies.append((hole_id, reply))
            answered.add(hole_id)
            frontier.extend(reply.holes)
            budget -= 1
        return replies


def measure_fragment(stats: LXPStats, fragments: Fragments) -> None:
    """Account one fill reply against ``stats``: bump the fill count
    and tally shipped elements/holes across the whole reply.  Every
    LXP server (source wrappers and the remote channel exporter) calls
    this on each reply it returns."""
    holes = len(fragments.holes)
    elements = len(fragments.labels) - holes
    with stats.lock:
        stats.fills += 1
        stats.elements_shipped += elements
        stats.holes_shipped += holes


def _node_at(tree: Tree, path: Tuple[int, ...]) -> Tree:
    """The node of ``tree`` at child-index ``path``."""
    node = tree
    for index in path:
        node = node._children[index]
    return node


class TreeLXPServer(LXPServer):
    """Serve a complete in-memory tree through LXP.

    Granularity knobs (the levers of experiment E4/E5):

    chunk_size:
        Maximum sibling elements per fill; a trailing hole covers the
        rest ("a relational source may return chunks of 100 tuples at
        a time").
    depth:
        How many levels below a shipped element are included; children
        past the horizon are replaced by a single hole.  ``depth=1``
        ships elements with all children unexplored; a large depth
        ships whole subtrees ("start streaming of huge documents by
        sending complete elements").

    Hole ids are ``(path, lo, hi)``: the represented sublist
    ``children[lo:hi]`` of the node at child-index ``path`` (hi=None
    means "to the end"), plus the root hole ``("root",)``.  A fill
    walks the tree as it stands
    (:func:`~repro.buffer.holes.append_trees`); nothing is numbered up
    front, so a server costs what its fills ship.
    """

    def __init__(self, tree: Tree, chunk_size: Optional[int] = None,
                 depth: int = 1000000):
        self.tree = tree
        self.chunk_size, self.depth = validate_granularity(chunk_size,
                                                           depth)
        self.stats = LXPStats()

    def snapshot_version(self) -> object:
        """The version stamp of the snapshot this server exports.

        The capability behind cross-session fragment caching
        (:mod:`repro.runtime.fragcache`), negotiated by presence like
        ``push_compile``: a wrapper that cannot stamp its snapshots
        simply doesn't implement this, and its fragments are never
        cached.  This reference server exports one immutable in-memory
        tree, so the version is constant; mutable sources (the
        versioned testing harness) return a stamp that changes
        whenever the underlying snapshot does.
        """
        return 0

    # -- LXPServer ----------------------------------------------------------
    def get_root(self) -> Fragments:
        return Fragments.hole(("root",))

    def _range_of(self, hole_id) -> tuple:
        """A range hole id taken apart: ``(path, lo, hi)``, the chunk
        to ship, and what a continuation hole appends to its
        ``(path, limit, hi)``."""
        path, lo, hi = hole_id
        return path, lo, hi, self.chunk_size, ()

    def fill(self, hole_id) -> Fragments:
        out: tuple = ([], [], [])
        if hole_id == ("root",):
            append_trees(out, (self.tree,), depth=self.depth,
                         chunk=self.chunk_size)
        else:
            try:
                path, lo, hi, chunk, grown = self._range_of(hole_id)
                kids = _node_at(self.tree, path)._children
            except (ValueError, IndexError, TypeError):
                raise LXPProtocolError(
                    "unknown hole id %r" % (hole_id,))
            # The one range-shipping loop: at most ``chunk`` of
            # ``children[lo:hi]``, then a hole for whatever remains.
            end = len(kids) if hi is None else hi
            limit = min(end, lo + chunk)
            append_trees(out, kids, lo, limit, path, self.depth,
                         self.chunk_size)
            if limit < end:
                append_hole(out, (path, limit, hi) + grown)
        reply = Fragments(*map(tuple, out))
        measure_fragment(self.stats, reply)
        return reply


class AdaptiveTreeLXPServer(TreeLXPServer):
    """TreeLXPServer with wrapper-controlled *adaptive* granularity.

    "the wrapper control[s] the granularity at which it exports data"
    (paper Section 4) -- this policy starts small (cheap for clients
    that peek and leave) and doubles the chunk on each sequential
    continuation fill (cheap for clients that keep scanning), up to
    ``max_chunk``.  The growth state is encoded in the hole id
    (``(path, lo, hi, next_chunk)``), so the server stays stateless.
    """

    def __init__(self, tree: Tree, initial_chunk: int = 2,
                 max_chunk: int = 64, depth: int = 1000000):
        super().__init__(tree, chunk_size=initial_chunk, depth=depth)
        if max_chunk < initial_chunk:
            raise ValueError("max_chunk must be >= initial_chunk")
        self.initial_chunk = initial_chunk
        self.max_chunk = max_chunk

    def _range_of(self, hole_id):
        if len(hole_id) == 4:
            path, lo, hi, chunk = hole_id
        else:
            path, lo, hi = hole_id
            chunk = self.initial_chunk
        self.chunk_size = chunk  # the walk uses it for subtrees
        return path, lo, hi, chunk, (min(chunk * 2, self.max_chunk),)

    def fill(self, hole_id) -> Fragments:
        if hole_id == ("root",):
            self.chunk_size = self.initial_chunk
        return super().fill(hole_id)


class RandomizedLXPServer(LXPServer):
    """A deliberately *liberal* LXP server for robustness testing.

    Every fill answers with a random legal mix of elements and holes:
    random split points, holes at the front, middle or back (never two
    adjacent, always some progress), random subtree depths.  Seeded,
    so failures reproduce.  Example 7's trace is one possible behaviour
    of this server.
    """

    def __init__(self, tree: Tree, seed: int = 0,
                 max_run: int = 3):
        self.tree = tree
        self.rng = random.Random(seed)
        self.max_run = max(1, max_run)
        self.stats = LXPStats()

    def get_root(self) -> Fragments:
        return Fragments.hole(("root",))

    def _ship_element(self, out: tuple, path: Tuple[int, ...],
                      node: Tree) -> None:
        slot = len(out[1])
        out[0].append(node._label)
        out[1].append(1)
        kids = node._children
        if kids:
            if self.rng.random() < 0.5:
                # Leave the children wholly unexplored.
                append_hole(out, (path, 0, len(kids)))
            else:
                self._split_range(out, path, 0, len(kids))
            out[1][slot] = len(out[1]) - slot

    def _split_range(self, out: tuple, path: Tuple[int, ...], lo: int,
                     hi: int) -> None:
        """A random legal run covering children [lo, hi)."""
        if lo >= hi:
            return
        kids = _node_at(self.tree, path)._children
        index = lo
        # Optionally a leading hole covering a prefix.
        if self.rng.random() < 0.3 and hi - index >= 2:
            cut = self.rng.randint(index + 1, hi - 1)
            append_hole(out, (path, index, cut))
            index = cut
        while index < hi:
            run = min(self.rng.randint(1, self.max_run), hi - index)
            for offset in range(run):
                self._ship_element(out, path + (index + offset,),
                                   kids[index + offset])
            index += run
            if index < hi:
                cut = self.rng.randint(index + 1, hi)
                append_hole(out, (path, index, cut))
                index = cut

    def fill(self, hole_id) -> Fragments:
        out: tuple = ([], [], [])
        if hole_id == ("root",):
            self._ship_element(out, (), self.tree)
        else:
            path, lo, hi = hole_id
            kids = _node_at(self.tree, path)._children
            self._split_range(out, path, lo,
                              len(kids) if hi is None else hi)
        reply = Fragments(*map(tuple, out))
        measure_fragment(self.stats, reply)
        return reply
