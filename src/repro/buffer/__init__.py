"""Buffer component and the Lean XML Fragment Protocol (paper Sec. 4):
open trees with holes, fill-request chasing (Figure 8), granularity
policies, and the one buffer's fill policies (look-ahead, batching)."""

from .component import (
    BatchStats,
    BufferComponent,
    BufferStats,
    PrefetchStats,
)
from .holes import (
    Fragments,
    LXPProtocolError,
    fragment_of_tree,
    validate_fill_reply,
)
from .lxp import (
    AdaptiveTreeLXPServer,
    LXPServer,
    LXPStats,
    RandomizedLXPServer,
    TreeLXPServer,
    reply_holes,
)

__all__ = [
    "Fragments",
    "LXPProtocolError", "validate_fill_reply", "fragment_of_tree",
    "reply_holes",
    "LXPServer", "LXPStats", "TreeLXPServer", "AdaptiveTreeLXPServer",
    "RandomizedLXPServer",
    "BufferComponent", "BufferStats", "PrefetchStats", "BatchStats",
]
