"""Thin client library (paper Section 5): XMLElement handles that make
virtual documents indistinguishable from in-memory DOM trees, plus the
remote-client fragment channel (the paper's Section 5 outlook)."""

from .bbq import BBQError, BBQSession
from .element import XMLElement, open_virtual_document
from .remote import (
    ChannelStats,
    MeteredTransport,
    NavigableLXPServer,
    RPCDocument,
    connect_remote,
)

__all__ = [
    "XMLElement", "open_virtual_document",
    "BBQSession", "BBQError",
    "NavigableLXPServer", "MeteredTransport",
    "ChannelStats", "RPCDocument", "connect_remote",
]
