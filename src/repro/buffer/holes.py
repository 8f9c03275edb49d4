"""Open trees with holes (paper Definitions 3 and 4).

An *open* tree is a partial version of a source's XML view: element
nodes whose child lists may contain *holes* -- placeholders carrying an
opaque identifier and representing zero or more unexplored sibling
elements.  The buffer component refines its open tree in place as
``fill`` answers splice fragments over holes.

Two node kinds:

* :class:`OpenElem` -- a labeled node with a mutable child list; the
  buffer hands these out as navigation pointers (object identity is
  the pointer).
* :class:`OpenHole` -- an unexplored sublist, to be replaced by the
  fragments of a ``fill`` answer.

Fragments (what wrappers return from ``fill``) are the immutable
counterparts :class:`FragElem` / :class:`FragHole`; the buffer converts
them to open nodes when splicing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

from ..xtree.tree import Tree

__all__ = [
    "OpenElem", "OpenHole", "FragElem", "FragHole", "Fragment",
    "LXPProtocolError", "validate_fill_reply", "fragment_of_tree",
    "fragment_wire_size", "open_tree_to_tree", "count_holes",
    "open_holes", "HoleIndex",
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
    previous_was_hole = False
    for fragment in fragments:
        is_hole = isinstance(fragment, FragHole)
        if is_hole and previous_was_hole:
            raise LXPProtocolError("fill reply has two adjacent holes")
        previous_was_hole = is_hole

    def check(frag: Fragment) -> None:
        if isinstance(frag, FragHole):
            return
        prev_hole = False
        only_holes = bool(frag.children)
        for child in frag.children:
            is_hole = isinstance(child, FragHole)
            if is_hole and prev_hole:
                raise LXPProtocolError(
                    "fill reply has two adjacent holes under %r"
                    % frag.label)
            if not is_hole:
                only_holes = False
                check(child)
            prev_hole = is_hole
        if only_holes and len(frag.children) > 1:
            raise LXPProtocolError(
                "element %r has multiple children but only holes"
                % frag.label)

    for fragment in fragments:
        check(fragment)


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
# Open nodes: the buffer's mutable view
# ----------------------------------------------------------------------

class OpenElem:
    """An element of the buffer's open tree.  Identity == pointer."""

    __slots__ = ("label", "children", "parent", "pos")

    def __init__(self, label: str, parent: Optional["OpenElem"] = None):
        self.label = label
        self.children: List[Union[OpenElem, OpenHole]] = []
        self.parent = parent
        #: where this node sat in ``parent.children`` when it was last
        #: located -- a hint, not a fact: a splice to its left moves
        #: the node without telling it
        self.pos = 0

    def index_in_parent(self) -> int:
        """This node's index in its parent's child list.

        Child lists run to thousands of siblings (a table's rows), so
        the hint is tried first; only a node that a splice has moved
        pays the linear search, once, and remembers the answer.
        """
        siblings = self.parent.children
        pos = self.pos
        if pos >= len(siblings) or siblings[pos] is not self:
            pos = self.pos = siblings.index(self)
        return pos

    def __repr__(self) -> str:
        return "OpenElem(%s, %d children)" % (self.label,
                                              len(self.children))


class OpenHole:
    """A hole in the buffer's open tree."""

    __slots__ = ("hole_id", "parent", "before", "after")

    def __init__(self, hole_id: object,
                 parent: Optional[OpenElem] = None):
        self.hole_id = hole_id
        self.parent = parent
        #: neighbours in the buffer's :class:`HoleIndex`, if it keeps one
        self.before: Optional[OpenHole] = None
        self.after: Optional[OpenHole] = None

    def __repr__(self) -> str:
        return "OpenHole(%r)" % (self.hole_id,)


def graft(fragment: Fragment,
          parent: Optional[OpenElem]) -> Union[OpenElem, OpenHole]:
    """Convert a fill fragment into open nodes under ``parent``."""
    if isinstance(fragment, FragHole):
        return OpenHole(fragment.hole_id, parent)
    node = OpenElem(fragment.label, parent)
    children = node.children
    for child in fragment.children:
        children.append(graft(child, node))
    return node


def open_tree_to_tree(node: OpenElem,
                      hole_label: str = "hole") -> Tree:
    """Render an open tree as a Tree, holes shown as ``hole[...]``
    leaves (debugging / inspection aid)."""
    children = []
    for child in node.children:
        if isinstance(child, OpenHole):
            children.append(Tree(hole_label, [Tree(str(child.hole_id))]))
        else:
            children.append(open_tree_to_tree(child, hole_label))
    return Tree(node.label, children)


def open_holes(nodes: Iterable[Union[OpenElem, OpenHole]]
               ) -> Iterator[OpenHole]:
    """The holes among and under ``nodes``, in document order."""
    for node in nodes:
        if isinstance(node, OpenHole):
            yield node
        else:
            yield from open_holes(node.children)


def count_holes(node: OpenElem) -> int:
    """Number of holes currently in the open tree under ``node``."""
    return sum(1 for _ in open_holes(node.children))


class HoleIndex:
    """The outstanding holes of one open tree, in document order (a
    doubly linked list threaded through the holes) and by id.

    It changes where the set of holes does -- when a fill reply is
    spliced, at O(reply) -- so reading the leftmost holes or one hole
    by id never walks the tree.  Guarded by the owning buffer's lock.
    """

    def __init__(self, root_hole: OpenHole) -> None:
        #: a sentinel before the leftmost hole, never outstanding
        self._head = root_hole.before = OpenHole(None)
        self._head.after = root_hole
        self._by_id: Dict[object, OpenHole] = {
            root_hole.hole_id: root_hole}

    def get(self, hole_id: object) -> Optional[OpenHole]:
        """The outstanding hole carrying ``hole_id``, if any."""
        return self._by_id.get(hole_id)

    def leftmost(self, limit: int) -> List[OpenHole]:
        """Up to ``limit`` outstanding holes, leftmost first -- the
        direction a forward-browsing client needs next."""
        found: List[OpenHole] = []
        hole = self._head.after
        while hole is not None and len(found) < limit:
            found.append(hole)
            hole = hole.after
        return found

    def replace(self, hole: OpenHole,
                nodes: Iterable[Union[OpenElem, OpenHole]]) -> None:
        """``hole`` was filled by ``nodes``: the holes they carry take
        its place."""
        by_id = self._by_id
        by_id.pop(hole.hole_id, None)
        last, after = hole.before, hole.after
        for new in open_holes(nodes):
            by_id[new.hole_id] = new
            last.after, new.before = new, last
            last = new
        last.after = after
        if after is not None:
            after.before = last
