"""MIX: navigation-driven evaluation of virtual mediated XML views.

A from-scratch reproduction of Ludaescher, Papakonstantinou &
Velikhov, "Navigation-Driven Evaluation of Virtual Mediated Views"
(EDBT 2000): the MIX mediator, the XMAS query language and algebra,
lazy mediators, the browsability classification, and the buffered LXP
wrapper architecture -- plus the relational / object-database /
synthetic-web substrates the wrappers sit on.

Quickstart::

    from repro import MIXMediator, XMLFileWrapper

    med = MIXMediator()
    med.register_wrapper("homesSrc", XMLFileWrapper("homesSrc", xml))
    root = med.query(XMAS_QUERY)     # virtual: no source touched yet
    for med_home in root.children(): # navigation drives evaluation
        print(med_home.find("addr").text())
"""

from .errors import (
    PermanentSourceError,
    ReproError,
    SourceError,
    StaticAnalysisError,
    TransientSourceError,
)
from .core import (
    BindingsDocument,
    Browsability,
    CacheManager,
    CountingDocument,
    EngineConfig,
    ExecutionContext,
    MediatorError,
    MediatorWarning,
    MIXMediator,
    NavigableDocument,
    QueryResult,
    Tracer,
    VirtualDocument,
    XMLElement,
    build_lazy_plan,
    build_virtual_document,
    classify,
    classify_plan,
    materialize,
    open_virtual_document,
    optimize,
    parse_xmas,
    translate,
)
from .wrappers import (
    OODBLXPWrapper,
    RelationalLXPWrapper,
    WebLXPWrapper,
    XMLFileWrapper,
    buffered,
)

__version__ = "1.0.0"

__all__ = [
    "MIXMediator", "MediatorError", "MediatorWarning", "QueryResult",
    "EngineConfig", "ExecutionContext", "CacheManager", "Tracer",
    "XMLElement", "open_virtual_document",
    "BindingsDocument", "VirtualDocument",
    "build_lazy_plan", "build_virtual_document",
    "NavigableDocument", "materialize", "CountingDocument",
    "Browsability", "classify", "classify_plan", "optimize",
    "parse_xmas", "translate",
    "XMLFileWrapper", "RelationalLXPWrapper", "WebLXPWrapper",
    "OODBLXPWrapper", "buffered",
    "ReproError", "SourceError", "TransientSourceError",
    "PermanentSourceError", "StaticAnalysisError",
    "__version__",
]
