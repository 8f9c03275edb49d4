"""A small object database: classes, extents, and object graphs.

Figure 1 of the paper shows an OODB behind an ``OODB-XML`` wrapper as
one of the three source species.  This substrate provides what that
wrapper needs: named classes with typed-ish attributes, per-class
extents in stable creation order, object identity (oids), references
between objects, and path traversal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

__all__ = ["OODBError", "OClass", "OObject", "ObjectStore"]


from ..errors import PermanentSourceError


class OODBError(PermanentSourceError):
    """Raised for schema violations and unknown names/oids (permanent:
    retrying the same lookup cannot succeed)."""


@dataclass(frozen=True)
class OClass:
    """An object class: a name plus an ordered attribute list."""

    name: str
    attributes: tuple

    def __post_init__(self):
        if len(set(self.attributes)) != len(self.attributes):
            raise OODBError(
                "duplicate attribute in class %r" % self.name)


#: Attribute values: atoms, references to other objects, or lists of
#: either.
AttrValue = Union[str, int, float, "OObject", list]


class OObject:
    """An object with identity, a class, and attribute values."""

    __slots__ = ("oclass", "oid", "_values")

    def __init__(self, oclass: OClass, oid: str,
                 values: Dict[str, AttrValue]):
        unknown = set(values) - set(oclass.attributes)
        if unknown:
            raise OODBError(
                "class %s has no attributes %s"
                % (oclass.name, sorted(unknown))
            )
        self.oclass = oclass
        self.oid = oid
        self._values = dict(values)

    def get(self, attribute: str) -> Optional[AttrValue]:
        if attribute not in self.oclass.attributes:
            raise OODBError(
                "class %s has no attribute %r"
                % (self.oclass.name, attribute)
            )
        return self._values.get(attribute)

    def __repr__(self) -> str:
        return "<%s %s>" % (self.oclass.name, self.oid)


class ObjectStore:
    """A named store of classes and their extents."""

    def __init__(self, name: str):
        self.name = name
        self._classes: Dict[str, OClass] = {}
        self._extents: Dict[str, List[OObject]] = {}
        self._by_oid: Dict[str, OObject] = {}
        self._counter = 0

    # -- schema ----------------------------------------------------------
    def define_class(self, name: str,
                     attributes: Sequence[str]) -> OClass:
        if name in self._classes:
            raise OODBError("class %r already defined" % name)
        oclass = OClass(name, tuple(attributes))
        self._classes[name] = oclass
        self._extents[name] = []
        return oclass

    def oclass(self, name: str) -> OClass:
        try:
            return self._classes[name]
        except KeyError:
            raise OODBError("no class %r in store %r"
                            % (name, self.name)) from None

    @property
    def class_names(self) -> List[str]:
        return list(self._classes)

    # -- objects ---------------------------------------------------------
    def create(self, class_name: str, **values: AttrValue) -> OObject:
        """Create an object in the extent of ``class_name``."""
        oclass = self.oclass(class_name)
        self._counter += 1
        oid = "%s:%s%d" % (self.name, class_name.lower(), self._counter)
        obj = OObject(oclass, oid, values)
        self._extents[class_name].append(obj)
        self._by_oid[oid] = obj
        return obj

    def extent(self, class_name: str) -> List[OObject]:
        """All objects of a class, in creation order."""
        self.oclass(class_name)
        return list(self._extents[class_name])

    def get(self, oid: str) -> OObject:
        try:
            return self._by_oid[oid]
        except KeyError:
            raise OODBError("no object with oid %r" % oid) from None

    # -- traversal ---------------------------------------------------------
    def follow(self, obj: OObject, path: str) -> List[AttrValue]:
        """Evaluate a dotted attribute path from ``obj``.

        Reference attributes are traversed, list attributes fan out;
        the result is the list of values at the end of the path (OQL's
        implicit flattening).
        """
        frontier: List[AttrValue] = [obj]
        for attribute in path.split("."):
            next_frontier: List[AttrValue] = []
            for value in frontier:
                if not isinstance(value, OObject):
                    raise OODBError(
                        "cannot follow %r through non-object %r"
                        % (attribute, value)
                    )
                result = value.get(attribute)
                if result is None:
                    continue
                if isinstance(result, list):
                    next_frontier.extend(result)
                else:
                    next_frontier.append(result)
            frontier = next_frontier
        return frontier
