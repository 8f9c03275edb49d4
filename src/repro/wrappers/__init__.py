"""Source wrappers (Figure 1 / Section 4): relational, web, OODB and
native-XML LXP servers, plus buffer wiring helpers."""

from .base import buffered
from .oodb import OODBLXPWrapper
from .relational import RelationalLXPWrapper, RelationalQueryWrapper
from .web import WebLXPWrapper
from .xmlfile import XMLFileWrapper, document_node

__all__ = [
    "RelationalLXPWrapper", "RelationalQueryWrapper",
    "WebLXPWrapper", "OODBLXPWrapper",
    "XMLFileWrapper", "document_node", "buffered",
]
