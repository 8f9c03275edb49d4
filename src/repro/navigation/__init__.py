"""DOM-VXD navigation model (paper Section 2): commands, navigable
documents, explored parts, instrumentation, and the empirical
browsability classifier."""

from .commands import (
    DOWN,
    FETCH,
    RIGHT,
    Down,
    Fetch,
    LabelPredicate,
    NavCommand,
    NavResult,
    NavStep,
    Navigation,
    Right,
    Select,
    label_is,
)
from .complexity import (
    Browsability,
    ComplexityReport,
    CostCurve,
    browsability_order,
    classify,
    compose_classes,
    measure_cost,
)
from .counting import CountingDocument, NavCounters
from .explored import UNFETCHED_LABEL, ExploredPart, explored_part
from .interface import (
    NavigableDocument,
    child_labels,
    iter_children,
    materialize,
    run_navigation,
)
from .materialized import MaterializedDocument
from .profiler import (
    NavigationProfile,
    OperatorProfile,
    expected_verdict,
    profile_classify,
    profiled_cost,
)

__all__ = [
    "Down", "Right", "Fetch", "Select", "DOWN", "RIGHT", "FETCH",
    "NavCommand", "NavStep", "Navigation", "NavResult", "LabelPredicate",
    "label_is",
    "NavigableDocument", "run_navigation", "materialize", "iter_children",
    "child_labels",
    "MaterializedDocument",
    "CountingDocument", "NavCounters",
    "ExploredPart", "explored_part", "UNFETCHED_LABEL",
    "Browsability", "CostCurve", "ComplexityReport", "classify",
    "measure_cost", "browsability_order", "compose_classes",
    "NavigationProfile", "OperatorProfile", "profiled_cost",
    "profile_classify", "expected_verdict",
]
