"""Source-native query pushdown (the "query capabilities" escape
hatch of the paper's Section 4: wrappers that can evaluate more than
navigation do so in one native request).

The pipeline: ``compile_chain`` (in :mod:`.compiled`) recognizes
maximal single-source subplans; ``compile_pushdown`` (in
:mod:`.compiler`) negotiates each with its wrapper and splices
accepted ones as :class:`PushedSource` leaves; at build time a
:class:`PushedSourceDocument` (in :mod:`.document`) executes the
request lazily and replays the original chain over the pre-filled
result, so answers are byte-identical to the lazy run while source
navigations collapse to one native round trip.
"""

# .compiled and .plan must import before .compiler: the wrapper
# modules (pulled in via compiler -> wrappers.base) import
# repro.pushdown.compiled while this package is still initializing.
from .compiled import (  # noqa: F401
    CompiledSubplan,
    OODBPathQuery,
    PageFetchRequest,
    PathStep,
    RelationalPushRequest,
    TableScan,
    XPathScanRequest,
    child_restriction,
    compile_chain,
    comparison_filter,
    conjuncts,
    first_labels,
    single_hop_value_column,
    sql_exact_filter,
)
from .plan import PushedSource  # noqa: F401
from .compiler import PushdownDecision, compile_pushdown  # noqa: F401
from .document import PushedSourceDocument  # noqa: F401

__all__ = [
    "CompiledSubplan",
    "PathStep",
    "compile_chain",
    "conjuncts",
    "comparison_filter",
    "first_labels",
    "single_hop_value_column",
    "child_restriction",
    "sql_exact_filter",
    "RelationalPushRequest",
    "TableScan",
    "PageFetchRequest",
    "OODBPathQuery",
    "XPathScanRequest",
    "PushedSource",
    "PushdownDecision",
    "compile_pushdown",
    "PushedSourceDocument",
]
