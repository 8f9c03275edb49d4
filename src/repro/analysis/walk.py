"""Plan traversal with stable node provenance.

Findings pin to plan nodes via a *child-index path* from the root
("" for the root itself, "0" for its first child, "0.1" for that
child's second child).  The path is stable across re-analysis of an
identical plan and cheap to follow by hand next to ``plan.pretty()``.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from ..algebra import operators as ops

__all__ = ["walk_with_paths"]


def walk_with_paths(plan: ops.Operator
                    ) -> Iterator[Tuple[str, ops.Operator]]:
    """All nodes of a plan, root first, with their child-index paths."""

    def walk(node: ops.Operator, path: str
             ) -> Iterator[Tuple[str, ops.Operator]]:
        yield path, node
        for index, child in enumerate(node.inputs):
            child_path = ("%s.%d" % (path, index)) if path \
                else str(index)
            yield from walk(child, child_path)

    return walk(plan, "")
