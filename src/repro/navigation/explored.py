"""Explored parts of navigations (Definition 1).

``explored_part(tree, navigation)`` computes ``c(t)``: the unique
subtree comprising only those node-ids and labels of ``t`` that the
navigation accessed.  Nodes whose pointer was obtained but whose label
was never fetched appear with the placeholder label ``"?"``; holes left
for unexplored siblings/children simply do not appear.

This gives the test-suite a precise oracle for *laziness*: running a
client navigation against the virtual view must touch no more of the
source than the corresponding explored part requires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from ..xtree.tree import Tree
from .commands import Navigation
from .interface import NavigableDocument, run_navigation
from .materialized import MaterializedDocument

__all__ = ["ExploredPart", "explored_part", "UNFETCHED_LABEL"]

#: Placeholder for nodes whose pointer was visited but label not fetched.
UNFETCHED_LABEL = "?"


@dataclass
class ExploredPart:
    """The result of exploring a tree with a navigation.

    Attributes
    ----------
    visited:
        pointers (preorder node numbers, as
        :class:`~repro.navigation.materialized.MaterializedDocument`
        hands them out) whose node-ids were accessed.
    fetched:
        subset of ``visited`` whose labels were fetched.
    """

    visited: Set[int] = field(default_factory=set)
    fetched: Set[int] = field(default_factory=set)

    @property
    def node_count(self) -> int:
        return len(self.visited)

    def to_tree(self, source: Tree) -> Optional[Tree]:
        """Render the explored part as a tree with ``?`` placeholders.

        Returns None when nothing (not even the root) was visited.
        """
        if 0 not in self.visited:
            return None
        return _render(self, source, 0)[0]


def _render(part: ExploredPart, node: Tree,
            number: int) -> Tuple[Optional[Tree], int]:
    """The rendering of ``node`` (None when unvisited; node ``number``
    in preorder) and the number that follows its subtree."""
    after = number + 1
    children: List[Tree] = []
    for child in node.children:
        rendered, after = _render(part, child, after)
        if rendered is not None:
            children.append(rendered)
    if number not in part.visited:
        return None, after
    label = node.label if number in part.fetched else UNFETCHED_LABEL
    return Tree(label, children), after


def explored_part(tree: Tree, navigation: Navigation) -> ExploredPart:
    """Run ``navigation`` over ``tree`` and record what it accessed.

    The root handle counts as visited (it is returned for free), but its
    label counts as fetched only if an ``f`` command asked for it.
    """
    doc = _RecordingDocument(tree)
    result = run_navigation(doc, navigation)
    # Fetches are attributed inside the recording document; pointer
    # visits likewise.  The run result is returned to callers who need
    # the final point or fetched labels too.
    doc.explored.result = result  # type: ignore[attr-defined]
    return doc.explored


class _RecordingDocument(NavigableDocument):
    """A MaterializedDocument's navigation, recording visits for
    explored_part."""

    def __init__(self, tree: Tree):
        self.inner = MaterializedDocument(tree)
        self.explored = ExploredPart()
        self.explored.visited.add(0)

    def root(self) -> int:
        return self.inner.root()

    def down(self, pointer: int) -> Optional[int]:
        child = self.inner.down(pointer)
        if child is not None:
            self.explored.visited.add(child)
        return child

    def right(self, pointer: int) -> Optional[int]:
        sibling = self.inner.right(pointer)
        if sibling is not None:
            self.explored.visited.add(sibling)
        return sibling

    def fetch(self, pointer: int) -> str:
        self.explored.fetched.add(pointer)
        return self.inner.fetch(pointer)
