"""Labeled ordered trees: the data model of the VXD framework.

The paper (Section 2) abstracts XML documents as labeled ordered trees
over a domain ``D`` of "string-like" data::

    T = D | D[T*]

A tree is either a leaf -- a single atomic piece of data ``d`` -- or a
label ``d`` together with an ordered list of child trees.  In XML
parlance a non-leaf label is an element tag name and a leaf label is
character content or an empty element.

Two notions of equality matter in this code base:

* *structural* equality (``==``): same labels, same shape.  Used by the
  test-suite oracles that compare lazily navigated output against the
  eager reference evaluator.
* *identity* (``is`` / :func:`id`): binding lists share subtrees of the
  input documents (footnote 7 of the paper), so grouping and duplicate
  elimination must distinguish two structurally equal elements that come
  from different places in a source.  Node identity is plain Python
  object identity; nothing is ever copied implicitly.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple, Union

from .errors import TreeConstructionError

__all__ = [
    "Tree",
    "leaf",
    "elem",
    "tree_size",
    "preorder",
]

#: Anything accepted where a child tree is expected: an existing Tree, a
#: plain string (wrapped into a leaf), or an int/float (stringified).
ChildLike = Union["Tree", str, int, float]


class Tree:
    """A labeled ordered tree (an XML element or atomic datum).

    Parameters
    ----------
    label:
        The node label: an element tag name for inner nodes, atomic
        character data for leaves.  Must be a string (ints/floats are
        accepted for convenience and stringified).
    children:
        Ordered iterable of child trees.  Strings and numbers are
        wrapped into leaves.

    The children list is exposed read-only through :attr:`children`;
    trees are treated as immutable after construction (sources never
    change under a running navigation in this reproduction).
    """

    __slots__ = ("_label", "_children")

    def __init__(self, label: str, children: Iterable[ChildLike] = ()):
        if isinstance(label, (int, float)):
            label = _format_atom(label)
        if not isinstance(label, str):
            raise TreeConstructionError(
                "tree label must be a string, got %r" % (label,)
            )
        self._label = label
        kids: List[Tree] = []
        for child in children:
            if isinstance(child, Tree):
                kids.append(child)
            elif isinstance(child, (str, int, float)):
                kids.append(Tree(child))
            else:
                raise TreeConstructionError(
                    "tree child must be a Tree or atomic value, got %r"
                    % (child,)
                )
        self._children = tuple(kids)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def label(self) -> str:
        """The node label (tag name or atomic content)."""
        return self._label

    @property
    def children(self) -> Tuple["Tree", ...]:
        """The ordered tuple of child subtrees."""
        return self._children

    @property
    def is_leaf(self) -> bool:
        """True when this node has no children (atomic data)."""
        return not self._children

    def child(self, index: int) -> "Tree":
        """Return the ``index``-th child (0-based)."""
        return self._children[index]

    def first_child(self) -> Optional["Tree"]:
        """The first child, or None for a leaf (the ``d`` command)."""
        return self._children[0] if self._children else None

    def __len__(self) -> int:
        return len(self._children)

    def __iter__(self) -> Iterator["Tree"]:
        return iter(self._children)

    # ------------------------------------------------------------------
    # Structural equality & hashing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Tree):
            return NotImplemented
        # Iterative comparison to survive very deep trees.
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a._label != b._label or len(a._children) != len(b._children):
                return False
            stack.extend(zip(a._children, b._children))
        return True

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        # Shallow hash: label + arity + child labels.  Cheap, stable, and
        # consistent with structural __eq__ (equal trees hash equal).
        return hash(
            (self._label, len(self._children),
             tuple(c._label for c in self._children))
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def find_children(self, label: str) -> List["Tree"]:
        """All direct children carrying ``label``."""
        return [c for c in self._children if c._label == label]

    def find_child(self, label: str) -> Optional["Tree"]:
        """The first direct child carrying ``label``, or None."""
        for c in self._children:
            if c._label == label:
                return c
        return None

    def text(self) -> str:
        """Concatenated labels of all descendant leaves.

        For an element like ``zip[91220]`` this returns ``"91220"`` --
        the natural "string value" used by join predicates.
        """
        if self.is_leaf:
            return self._label
        parts: List[str] = []
        for node in preorder(self):
            if node.is_leaf and node is not self:
                parts.append(node._label)
        return "".join(parts)

    def descendants(self) -> Iterator["Tree"]:
        """All proper descendants in document (preorder) order."""
        for child in self._children:
            yield child
            yield from child.descendants()

    # ------------------------------------------------------------------
    # Copying / representation
    # ------------------------------------------------------------------
    def deep_copy(self) -> "Tree":
        """A structurally equal tree sharing no nodes with this one."""
        return Tree(self._label, [c.deep_copy() for c in self._children])

    def __repr__(self) -> str:
        return "Tree(%s)" % self.sexpr(max_depth=3)

    def sexpr(self, max_depth: Optional[int] = None) -> str:
        """Render in the paper's bracket notation, e.g. ``a[b, c[d]]``."""
        if self.is_leaf:
            return self._label
        if max_depth is not None and max_depth <= 0:
            return "%s[...]" % self._label
        inner_depth = None if max_depth is None else max_depth - 1
        inner = ", ".join(c.sexpr(inner_depth) for c in self._children)
        return "%s[%s]" % (self._label, inner)


def _format_atom(value: Union[int, float]) -> str:
    """Stringify a numeric atom the way the fixtures expect (no '.0')."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


# ----------------------------------------------------------------------
# Convenience constructors
# ----------------------------------------------------------------------

def leaf(value: Union[str, int, float]) -> Tree:
    """Construct a leaf node from an atomic value."""
    return Tree(_format_atom(value) if isinstance(value, (int, float))
                else value)


def elem(label: str, *children: ChildLike) -> Tree:
    """Construct an element; string/number children become leaves.

    >>> elem("home", elem("addr", "La Jolla"), elem("zip", 91220)).sexpr()
    'home[addr[La Jolla], zip[91220]]'
    """
    return Tree(label, children)


# ----------------------------------------------------------------------
# Whole-tree measures and traversals
# ----------------------------------------------------------------------

def tree_size(t: Tree) -> int:
    """Number of nodes in ``t``."""
    count = 0
    stack = [t]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children)
    return count


def preorder(t: Tree) -> Iterator[Tree]:
    """Document-order (preorder) traversal, including ``t`` itself."""
    stack = [t]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))
