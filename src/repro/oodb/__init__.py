"""Object-database substrate: classes, extents, oids, references and
path traversal (the source behind the OODB-XML wrapper of Figure 1)."""

from .store import (
    OClass,
    OObject,
    ObjectStore,
    OODBError,
)

__all__ = ["OClass", "OObject", "ObjectStore", "OODBError"]
