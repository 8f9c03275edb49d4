"""Navigation over an in-memory tree (the "ideal source").

The tree is numbered once, at construction, in preorder: node ``n``
has its label in ``label[n]``, its first child's number in
``first[n]`` and its right sibling's in ``next[n]`` (None for a leaf,
a last child, or the root).  A pointer is the node number -- ``0`` is
the root -- so pointers are hashable and stable, and each DOM-VXD
command is one table read: ``down``, ``right`` and ``fetch`` *are*
the tables' bound ``__getitem__``, and run no Python frame.

The tables are never written after construction, so one document can
be navigated by any number of threads at once (the daemon shares a
registered document across its handler threads) without a lock.
"""

from __future__ import annotations

from typing import List, Optional

from ..xtree.tree import Tree
from .interface import NavigableDocument

__all__ = ["MaterializedDocument"]


class MaterializedDocument(NavigableDocument):
    """Expose a :class:`Tree` through the DOM-VXD interface."""

    def __init__(self, tree: Tree):
        self.tree = tree
        label: List[str] = [tree.label]
        first: List[Optional[int]] = [None]
        following: List[Optional[int]] = [None]
        # One frame per open node: [number, its children, its last
        # numbered child]; a loop, so no depth limit.
        frames: list = [[0, iter(tree.children), None]]
        while frames:
            frame = frames[-1]
            child = next(frame[1], None)
            if child is None:
                frames.pop()
                continue
            number = len(label)
            label.append(child.label)
            first.append(None)
            following.append(None)
            if frame[2] is None:
                first[frame[0]] = number
            else:
                following[frame[2]] = number
            frame[2] = number
            if child.children:
                frames.append([number, iter(child.children), None])
        self.label, self.first, self.next = label, first, following
        # The three commands, as table reads.
        self.down = first.__getitem__
        self.right = following.__getitem__
        self.fetch = label.__getitem__

    def root(self) -> int:
        return 0
