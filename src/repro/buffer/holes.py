"""Open trees with holes (paper Definitions 3 and 4).

An *open* tree is a partial version of a source's XML view: element
nodes whose child lists may contain *holes* -- placeholders carrying an
opaque identifier and representing zero or more unexplored sibling
elements.  The buffer component refines its open tree in place as
``fill`` answers splice fragments over holes.

A fill reply is one immutable flat record, :class:`Fragments`: the
reply's run of sibling subtrees in preorder, as three tuples -- each
entry's label (``None`` for a hole), each entry's subtree node count,
and the hole ids in document order.  Wrappers append into those
tuples, the fragment cache stores the record as it is, the wire codec
reads and writes it, and the buffer grafts it in one loop; nothing on
the way builds an object per node.  The buffer keeps its open tree as
node tables (:class:`~repro.buffer.component.BufferComponent`): a
node is an ``int``, a hole is a node whose label is ``None``, and
:class:`HoleIndex` keeps the outstanding holes in document order for
the fill policies that read them.
"""

from __future__ import annotations

from itertools import chain
from typing import (Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple)

from ..xtree.tree import Tree

__all__ = [
    "Fragments", "LXPProtocolError", "validate_fill_reply", "append_hole",
    "append_trees", "fragment_of_tree", "fragment_wire_size", "HoleIndex",
]


from ..errors import PermanentSourceError


class LXPProtocolError(PermanentSourceError):
    """Raised when a wrapper's fill reply violates the LXP rules.

    Permanent by classification: re-sending the identical request to
    a wrapper that violates the protocol cannot make it conform."""


# ----------------------------------------------------------------------
# Fragments: the immutable record of one fill reply
# ----------------------------------------------------------------------

class Fragments(NamedTuple):
    """One fill reply: a run of sibling subtrees, flat, in preorder.

    ``labels[i]`` is entry ``i``'s label, ``None`` for a hole;
    ``sizes[i]`` is the node count of its subtree (1 for a leaf or a
    hole), so its first child is entry ``i + 1`` and its next sibling
    entry ``i + sizes[i]``; ``holes`` are the hole ids, in document
    order.  ``a[b, hole 7], hole 8`` is ``Fragments(("a", "b", None,
    None), (3, 1, 1, 1), (7, 8))``.
    """

    labels: Tuple[Optional[str], ...]
    sizes: Tuple[int, ...]
    holes: Tuple[object, ...] = ()

    @classmethod
    def hole(cls, hole_id: object) -> "Fragments":
        """The reply that is one hole -- what ``get_root`` answers."""
        return cls((None,), (1,), (hole_id,))

    @classmethod
    def join(cls, runs: Sequence["Fragments"]) -> "Fragments":
        """The replies ``runs``, one after another."""
        return cls(*[tuple(chain.from_iterable(part))
                     for part in zip(*runs)] or [(), ()])

    @classmethod
    def element(cls, label: str, *runs: "Fragments") -> "Fragments":
        """One element ``label`` whose children are the replies
        ``runs``, one after another."""
        labels, sizes, holes = cls.join(runs)
        return cls((label,) + labels, (1 + len(labels),) + sizes, holes)

    @property
    def hole_id(self) -> object:
        """The id of a reply that is one hole."""
        (hole_id,) = self.holes     # ValueError when not exactly one
        return hole_id


def validate_fill_reply(fragments: Fragments) -> None:
    """Enforce the LXP progress rules (paper Section 4):

    * a non-empty reply cannot consist only of holes;
    * no two adjacent holes (so no element has several children that
      are all holes).

    An empty reply is legal ("dead end": the hole represented zero
    elements).  Only holes can break a rule, so the check visits each
    hole, not each node.
    """
    labels, sizes, holes = fragments
    count = len(labels)
    if holes and len(holes) == count:
        raise LXPProtocolError(
            "fill reply contains only holes: no progress")
    at = -1
    for _ in holes:
        at = labels.index(None, at + 1)
        if at + 1 < count and labels[at + 1] is None:
            # The next entry is a hole too: is it this hole's sibling,
            # inside the run of the innermost element holding it?
            parent = max([node for node in range(at)
                          if node + sizes[node] > at], default=None)
            if at + 1 < (count if parent is None
                         else parent + sizes[parent]):
                raise LXPProtocolError(
                    "fill reply has two adjacent holes" if parent is None
                    else "fill reply has two adjacent holes under %r"
                    % labels[parent])


#: the granularity of a walk that ships everything
_UNBOUNDED = 1 << 62


def append_hole(out: tuple, hole_id: object) -> None:
    """Append a hole to the reply under construction ``out = (labels,
    sizes, holes)``."""
    out[0].append(None)
    out[1].append(1)
    out[2].append(hole_id)


def append_trees(out: tuple, nodes: Sequence[Tree], lo: int = 0,
                 end: Optional[int] = None,
                 path: Optional[Tuple[int, ...]] = None,
                 depth: int = _UNBOUNDED,
                 chunk: int = _UNBOUNDED) -> None:
    """Append ``nodes[lo:end]`` to the reply under construction ``out
    = (labels, sizes, holes)``, each as a subtree in preorder:
    ``depth`` levels deep (the children of an element on the horizon
    are one hole) and at most ``chunk`` children per element (a
    trailing hole stands for the rest).

    The one Tree-to-record walk, a loop (no frame per node).  A hole
    is ``(path, lo, None)``: children ``lo`` on of the node at
    child-index ``path`` -- :class:`~repro.buffer.lxp.TreeLXPServer`'s
    range ids.  ``path`` is that of the nodes' parent; None when the
    nodes are roots, whose path is ``()``.
    """
    labels, sizes, _ = out
    #: the runs left open above: (nodes, index, stop, the slot of the
    #: element whose children are being shipped)
    frames: list = []
    index, stop = lo, len(nodes) if end is None else end
    while index < stop or frames:
        if index == stop:    # the run is over: close its element
            if stop < len(nodes):
                # the element's path: its ancestors' indices, read
                # off the frames only when a hole needs it
                indices = tuple([frame[1] for frame in frames])
                append_hole(out, (indices[1:] if path is None
                                  else path + indices, stop, None))
            nodes, index, stop, slot = frames.pop()
            sizes[slot] = len(sizes) - slot
        else:
            node = nodes[index]
            labels.append(node._label)
            sizes.append(1)
            kids = node._children
            if kids:
                frames.append((nodes, index, stop, len(sizes) - 1))
                nodes, index = kids, 0
                # past the depth horizon, a run of no element: closing
                # it leaves one hole for all the children
                stop = min(len(kids), chunk) if depth > len(frames) else 0
                continue
        index += 1


def fragment_of_tree(tree: Tree) -> Fragments:
    """``tree`` whole, as a hole-free reply."""
    out: tuple = ([], [], [])
    append_trees(out, (tree,))
    return Fragments(*map(tuple, out))


def fragment_wire_size(fragments: Fragments) -> int:
    """Estimated serialized size of a reply in bytes (tags + text +
    hole markers: ``2 * len(label) + len("<></>")`` per element,
    ``len("<hole id=''/>") + len(repr(hole_id))`` per hole), used for
    transfer-cost accounting by the session budgets and the
    ``lxp_fragment_bytes`` metric."""
    labels, _, holes = fragments
    return (2 * sum(map(len, filter(None, labels)))
            + 5 * (len(labels) - len(holes))
            + sum([13 + len(repr(hole_id)) for hole_id in holes]))


# ----------------------------------------------------------------------
# The outstanding holes of a buffer's open tree
# ----------------------------------------------------------------------

class HoleIndex:
    """The outstanding holes of one open tree, in document order (a
    doubly linked list over their node numbers) and by id.

    It changes where the set of holes does -- when a fill reply is
    spliced, at O(reply) -- so reading the leftmost holes or one hole
    by id never walks the tree.  Node 0, the buffer's virtual
    ``#top``, heads the list; it is never a hole.  Guarded by the
    owning buffer's lock.
    """

    def __init__(self, root_hole: int, hole_id: object) -> None:
        self._after: Dict[int, Optional[int]] = {0: root_hole,
                                                 root_hole: None}
        self._before: Dict[int, int] = {root_hole: 0}
        self._by_id: Dict[object, int] = {hole_id: root_hole}

    def get(self, hole_id: object) -> Optional[int]:
        """The outstanding hole carrying ``hole_id``, if any."""
        return self._by_id.get(hole_id)

    def leftmost(self, limit: int) -> List[int]:
        """Up to ``limit`` outstanding holes, leftmost first -- the
        direction a forward-browsing client needs next."""
        found: List[int] = []
        after = self._after
        hole = after[0]
        while hole is not None and len(found) < limit:
            found.append(hole)
            hole = after[hole]
        return found

    def replace(self, hole: int, hole_id: object,
                holes: Iterable[Tuple[int, object]]) -> None:
        """``hole`` (carrying ``hole_id``) was filled: the ``(node,
        hole_id)`` pairs its reply introduced, in document order, take
        its place."""
        by_id, after_of, before_of = self._by_id, self._after, self._before
        by_id.pop(hole_id, None)
        last, after = before_of.pop(hole), after_of.pop(hole)
        for node, new_id in holes:
            by_id[new_id] = node
            after_of[last] = node
            before_of[node] = last
            last = node
        after_of[last] = after
        if after is not None:
            before_of[after] = last
