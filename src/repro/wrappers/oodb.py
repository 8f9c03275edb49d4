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

from ..buffer.holes import Fragments, LXPProtocolError
from ..buffer.lxp import LXPServer, LXPStats, measure_fragment
from ..oodb.store import ObjectStore, OObject
from ..pushdown.compiled import (
    CompiledSubplan,
    OODBPathQuery,
    child_restriction,
)
from ..runtime.config import validate_granularity

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

    def get_root(self) -> Fragments:
        return Fragments.hole(("store",))

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

    def push(self, request: OODBPathQuery) -> Fragments:
        """Evaluate a compiled path query: the kept extents, complete,
        as one hole-free reply."""
        if not isinstance(request, OODBPathQuery) or \
                request.store != self.store.name:
            raise LXPProtocolError(
                "request %r does not belong to store %r"
                % (request, self.store.name))
        names = self.store.class_names if request.classes is None \
            else request.classes
        return Fragments.element(self.store.name, *[
            Fragments.element(name, *map(self._object,
                                         self.store.extent(name)))
            for name in names])

    def fill(self, hole_id) -> Fragments:
        if hole_id == ("store",):
            reply = Fragments.element(self.store.name, *[
                Fragments.element(name, Fragments.hole(
                    ("extent", name, 0)))
                for name in self.store.class_names])
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
        runs = [self._object(obj) for obj in extent[start:end]]
        if end < len(extent):
            runs.append(Fragments.hole(("extent", class_name, end)))
        reply = Fragments.join(runs)
        measure_fragment(self.stats, reply)
        return reply

    @staticmethod
    def _object(obj: OObject) -> Fragments:
        """One object as a reply: ``object[oid[...], attr[...],
        ...]``, an attribute's atoms as text leaves, its references as
        ``ref[oid]`` (a list attribute fans out; nested lists
        flatten)."""
        labels: List[str] = ["object", "oid", obj.oid]
        sizes: List[int] = [1, 2, 1]
        for attribute in obj.oclass.attributes:
            slot = len(sizes)
            labels.append(attribute)
            sizes.append(1)
            value = obj.get(attribute)
            stack = [] if value is None else [value]
            while stack:
                item = stack.pop()
                if isinstance(item, list):
                    stack.extend(reversed(item))
                elif isinstance(item, OObject):
                    labels += ("ref", item.oid)
                    sizes += (2, 1)
                else:
                    labels.append(_atom(item))
                    sizes.append(1)
            sizes[slot] = len(sizes) - slot
        sizes[0] = len(sizes)
        return Fragments(tuple(labels), tuple(sizes))


def _atom(value) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)
