"""Navigation over an in-memory tree (the "ideal source").

Pointers are child-index paths (tuples of ints), so they are hashable,
stable, and encode their own position -- the same design philosophy as
the mediator's Skolem-style node-ids.  A pointer cache avoids repeated
root-to-node walks for interactive access patterns.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..xtree.tree import Tree
from .interface import NavigableDocument

__all__ = ["MaterializedDocument", "TreePointer"]

#: A pointer into a materialized document: the child-index path from
#: the root ('()' is the root itself).
TreePointer = Tuple[int, ...]


class MaterializedDocument(NavigableDocument):
    """Expose a :class:`Tree` through the DOM-VXD interface."""

    def __init__(self, tree: Tree):
        self.tree = tree
        self._nodes: Dict[TreePointer, Tree] = {(): tree}

    # -- helpers ---------------------------------------------------------
    def node_at(self, pointer: TreePointer) -> Tree:
        """Resolve a pointer to its tree node (cached)."""
        node = self._nodes.get(pointer)
        if node is not None:
            return node
        parent = self.node_at(pointer[:-1])
        node = parent.child(pointer[-1])
        self._nodes[pointer] = node
        return node

    # -- NavigableDocument -----------------------------------------------
    def root(self) -> TreePointer:
        return ()

    # Commands land on pointers this document handed out (hence
    # resolved) nearly always: each probes the pointer cache inline and
    # falls back to the walk only on a miss.
    def down(self, pointer: TreePointer) -> Optional[TreePointer]:
        node = self._nodes.get(pointer)
        if node is None:
            node = self.node_at(pointer)
        if node.is_leaf:
            return None
        return pointer + (0,)

    def right(self, pointer: TreePointer) -> Optional[TreePointer]:
        if not pointer:
            return None  # the root has no siblings
        parent = self._nodes.get(pointer[:-1])
        if parent is None:
            parent = self.node_at(pointer[:-1])
        index = pointer[-1] + 1
        if index >= len(parent.children):
            return None
        return pointer[:-1] + (index,)

    def fetch(self, pointer: TreePointer) -> str:
        node = self._nodes.get(pointer)
        if node is None:
            node = self.node_at(pointer)
        return node.label
