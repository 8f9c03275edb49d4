"""Open trees with holes (paper Definitions 3 and 4).

An *open* tree is a partial version of a source's XML view: element
nodes whose child lists may contain *holes* -- placeholders carrying an
opaque identifier and representing zero or more unexplored sibling
elements.  The buffer component refines its open tree in place as
``fill`` answers splice fragments over holes.

Fragments (what wrappers return from ``fill``) are the immutable
:class:`FragElem` / :class:`FragHole`.  The buffer keeps its open tree
as node tables (:class:`~repro.buffer.component.BufferComponent`): a
node is an ``int``, a hole is a node whose label is ``None``, and
:class:`HoleIndex` keeps the outstanding holes in document order for
the fill policies that read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..xtree.tree import Tree

__all__ = [
    "FragElem", "FragHole", "Fragment", "LXPProtocolError",
    "validate_fill_reply", "fragment_of_tree", "fragment_wire_size",
    "HoleIndex",
]


from ..errors import PermanentSourceError


class LXPProtocolError(PermanentSourceError):
    """Raised when a wrapper's fill reply violates the LXP rules.

    Permanent by classification: re-sending the identical request to
    a wrapper that violates the protocol cannot make it conform."""


# ----------------------------------------------------------------------
# Fragments: immutable wire format of fill answers
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FragElem:
    """An element in a fill reply; ``children`` may mix elements and
    holes."""

    label: str
    children: tuple = ()

    def __repr__(self) -> str:
        if not self.children:
            return self.label
        return "%s[%s]" % (self.label,
                           ", ".join(repr(c) for c in self.children))


@dataclass(frozen=True)
class FragHole:
    """A hole in a fill reply; ``hole_id`` is wrapper-defined."""

    hole_id: object

    def __repr__(self) -> str:
        return "hole[%r]" % (self.hole_id,)


Fragment = Union[FragElem, FragHole]


def validate_fill_reply(fragments: Sequence[Fragment]) -> None:
    """Enforce the LXP progress rules (paper Section 4):

    * a non-empty reply cannot consist only of holes;
    * no two adjacent holes.

    An empty reply is legal ("dead end": the hole represented zero
    elements).
    """
    if not fragments:
        return
    if all(isinstance(f, FragHole) for f in fragments):
        raise LXPProtocolError(
            "fill reply contains only holes: no progress")
    # One sibling run per entry: the reply itself (no label), then the
    # child list of every element in it.
    runs: List[Tuple[Optional[str], Sequence[Fragment]]] = [
        (None, fragments)]
    while runs:
        label, run = runs.pop()
        prev_hole = False
        only_holes = True
        for child in run:
            is_hole = isinstance(child, FragHole)
            if is_hole and prev_hole:
                raise LXPProtocolError(
                    "fill reply has two adjacent holes" if label is None
                    else "fill reply has two adjacent holes under %r"
                    % label)
            if not is_hole:
                only_holes = False
                if child.children:
                    runs.append((child.label, child.children))
            prev_hole = is_hole
        if only_holes and len(run) > 1:
            raise LXPProtocolError(
                "element %r has multiple children but only holes"
                % label)


def fragment_of_tree(tree: Tree) -> FragElem:
    """A fully closed fragment mirroring ``tree`` (no holes)."""
    return FragElem(tree.label,
                    tuple(fragment_of_tree(c) for c in tree.children))


def fragment_wire_size(fragment: Fragment) -> int:
    """Estimated serialized size of a fragment in bytes (tags + text +
    hole markers), used for transfer-cost accounting by the metered
    transports and the ``lxp_fragment_bytes`` metric.  (Historically
    defined in :mod:`repro.client.remote`, which still re-exports it.)
    """
    if isinstance(fragment, FragHole):
        return len("<hole id=''/>") + len(repr(fragment.hole_id))
    size = 2 * len(fragment.label) + len("<></>")
    for child in fragment.children:
        size += fragment_wire_size(child)
    return size


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
                holes: List[Tuple[int, object]]) -> None:
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
