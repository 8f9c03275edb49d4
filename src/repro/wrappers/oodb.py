"""The OODB LXP wrapper over the object-store substrate.

Exported view::

    storename[ ClassName[ object[oid[...], attr[...], ...], ..., hole ],
               ... ]

Atoms become text leaves, references become ``ref[oid]`` leaves (the
client can dereference by querying the class extents), list attributes
fan out into repeated children.  Extents ship ``chunk_size`` objects
per fill with a trailing hole -- the OODB's natural granularity is the
object, mirroring the relational wrapper's tuple.
"""

from __future__ import annotations

from typing import List, Optional

from ..buffer.holes import (
    FragElem,
    FragHole,
    Fragment,
    LXPProtocolError,
    fragment_of_tree,
)
from ..buffer.lxp import LXPServer, LXPStats, measure_fragment
from ..oodb.store import ObjectStore, OObject
from ..pushdown.compiled import (
    CompiledSubplan,
    OODBPathQuery,
    child_restriction,
)
from ..runtime.config import validate_granularity
from ..xtree.tree import Tree

__all__ = ["OODBLXPWrapper"]


class OODBLXPWrapper(LXPServer):
    """LXP server over an object store (see module docstring for the
    exported view shape).  ``chunk_size`` objects ship per extent
    fill."""

    def __init__(self, store: ObjectStore,
                 chunk_size: Optional[int] = None):
        self.store = store
        self.chunk_size, _ = validate_granularity(chunk_size)
        self.stats = LXPStats()

    def get_root(self) -> FragHole:
        return FragHole(("store",))

    def _value_trees(self, value) -> List[Tree]:
        if isinstance(value, OObject):
            return [Tree("ref", (Tree(value.oid),))]
        if isinstance(value, list):
            shipped: List[Tree] = []
            for item in value:
                shipped.extend(self._value_trees(item))
            return shipped
        return [Tree(_atom(value))]

    def _object_tree(self, obj: OObject) -> Tree:
        children = [Tree("oid", (Tree(obj.oid),))]
        for attribute in obj.oclass.attributes:
            value = obj.get(attribute)
            if value is None:
                children.append(Tree(attribute))
            else:
                children.append(
                    Tree(attribute, tuple(self._value_trees(value))))
        return Tree("object", tuple(children))

    # -- pushdown -------------------------------------------------------------
    def push_compile(self, compiled: CompiledSubplan
                     ) -> Optional[OODBPathQuery]:
        """Compile a chain into one path query over the class extents.

        The OODB's native bulk operation is shipping whole extents;
        when the chain provably touches only some classes
        (``child_restriction`` on the store root) the query names just
        those, otherwise every extent ships -- either way in a single
        native evaluation.
        """
        keep = child_restriction(compiled, compiled.root_var)
        classes: Optional[tuple] = None
        if keep is not None:
            classes = tuple(name for name in self.store.class_names
                            if name in keep)
        return OODBPathQuery(self.store.name, classes)

    def push(self, request: OODBPathQuery) -> Tree:
        """Evaluate a compiled path query: the kept extents, complete,
        as the closed export tree."""
        if not isinstance(request, OODBPathQuery) or \
                request.store != self.store.name:
            raise LXPProtocolError(
                "request %r does not belong to store %r"
                % (request, self.store.name))
        names = self.store.class_names if request.classes is None \
            else request.classes
        classes = tuple(
            Tree(name, tuple(self._object_tree(obj)
                             for obj in self.store.extent(name)))
            for name in names)
        return Tree(self.store.name, classes)

    def fill(self, hole_id) -> List[Fragment]:
        if hole_id == ("store",):
            classes = tuple(
                FragElem(name, (FragHole(("extent", name, 0)),))
                for name in self.store.class_names
            )
            reply: List[Fragment] = [FragElem(self.store.name, classes)]
            measure_fragment(self.stats, reply)
            return reply
        try:
            kind, class_name, start = hole_id
        except (TypeError, ValueError):
            raise LXPProtocolError("unknown hole id %r" % (hole_id,))
        if kind != "extent":
            raise LXPProtocolError("unknown hole id %r" % (hole_id,))
        extent = self.store.extent(class_name)
        end = min(start + self.chunk_size, len(extent))
        reply = [fragment_of_tree(self._object_tree(obj))
                 for obj in extent[start:end]]
        if end < len(extent):
            reply.append(FragHole(("extent", class_name, end)))
        measure_fragment(self.stats, reply)
        return reply


def _atom(value) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)
