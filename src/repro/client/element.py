"""The thin client library (paper Section 5).

"A thin client library between the mediator and the client application
makes the virtual document exported by the mediator indistinguishable
from a main memory resident document accessed via DOM."

:class:`XMLElement` hides the mediator's structured node-ids in a
private field and exposes the familiar object API: when the client
writes ``r = p.right()``, the library issues the corresponding
navigation against the mediator and wraps the returned node-id in a
fresh XMLElement.  Results of ``down``/``right``/``fetch`` are memoized
per element, so client code can hold references and revisit freely
without re-issuing navigations.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from ..navigation.interface import NavigableDocument
from ..xtree.tree import Tree

__all__ = ["XMLElement", "open_virtual_document"]

_UNRESOLVED = object()


class XMLElement:
    """A client-side handle to one element of a (virtual) document."""

    __slots__ = ("_document", "_node_id", "_tag", "_first", "_next")

    def __init__(self, document: NavigableDocument, node_id):
        self._document = document
        self._node_id = node_id  # the paper's private node_id field
        self._tag: Optional[str] = None
        self._first = _UNRESOLVED
        self._next = _UNRESOLVED

    # -- DOM-VXD surface ------------------------------------------------
    @property
    def tag(self) -> str:
        """The element's label (``f``), fetched on first access."""
        if self._tag is None:
            self._tag = self._document.fetch(self._node_id)
        return self._tag

    def first_child(self) -> Optional["XMLElement"]:
        """The first child (``d``), or None for leaves."""
        if self._first is _UNRESOLVED:
            child_id = self._document.down(self._node_id)
            self._first = (XMLElement(self._document, child_id)
                           if child_id is not None else None)
        return self._first

    def right(self) -> Optional["XMLElement"]:
        """The right sibling (``r``), or None."""
        if self._next is _UNRESOLVED:
            sibling_id = self._document.right(self._node_id)
            self._next = (XMLElement(self._document, sibling_id)
                          if sibling_id is not None else None)
        return self._next

    # -- conveniences built on the minimal command set -------------------
    def children(self) -> Iterator["XMLElement"]:
        """Iterate children left to right (lazy)."""
        child = self.first_child()
        while child is not None:
            yield child
            child = child.right()

    def child_list(self) -> List["XMLElement"]:
        return list(self.children())

    def find(self, tag: str) -> Optional["XMLElement"]:
        """First child with the given tag."""
        for child in self.children():
            if child.tag == tag:
                return child
        return None

    def find_all(self, tag: str) -> List["XMLElement"]:
        return [c for c in self.children() if c.tag == tag]

    @property
    def is_leaf(self) -> bool:
        return self.first_child() is None

    # -- degradation markers --------------------------------------------
    @property
    def is_error(self) -> bool:
        """Whether this element is a ``<mix:error>`` placeholder left
        by a degraded source (see :mod:`repro.runtime.resilience`)."""
        from ..runtime.resilience import is_error_label
        return is_error_label(self.tag)

    def error_info(self) -> Optional[dict]:
        """For a placeholder element: ``{"source": ..., "reason":
        ...}``; None for ordinary elements."""
        if not self.is_error:
            return None
        info = {}
        for child in self.children():
            info[child.tag] = child.text()
        return info

    def find_errors(self) -> List["XMLElement"]:
        """All ``<mix:error>`` placeholders in this subtree (forces
        it) -- the quick way to ask "was this answer degraded?"."""
        if self.is_error:
            return [self]
        found: List["XMLElement"] = []
        for child in self.children():
            found.extend(child.find_errors())
        return found

    def text(self) -> str:
        """Concatenated leaf text below this element (forces the
        subtree)."""
        if self.is_leaf:
            return self.tag
        parts: List[str] = []
        for child in self.children():
            parts.append(child.text())
        return "".join(parts)

    def to_tree(self) -> Tree:
        """Materialize this element into an in-memory Tree (forces the
        whole subtree -- exactly what lazy clients avoid)."""
        subtrees = []
        child = self.first_child()
        while child is not None:
            subtrees.append(child.to_tree())
            child = child.right()
        return Tree(self.tag, subtrees)

    def __repr__(self) -> str:
        return "<XMLElement %s>" % self.tag


def open_virtual_document(document: NavigableDocument) -> XMLElement:
    """Wrap a navigable (virtual or materialized) document into the
    client API, returning the root element handle."""
    return XMLElement(document, document.root())
