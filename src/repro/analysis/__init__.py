"""Static plan diagnostics: compile-time browsability, schema, cost,
rewrite, and pushdown analysis over XMAS algebra plans (the
query-compiler counterpart of the PR 4 *empirical* navigation
profiler).

Entry points:

* :func:`analyze_plan` / :func:`analyze_query` -- run the five passes,
* :class:`AnalysisReport` / :class:`Finding` / :data:`CODES` -- the
  structured result model,
* :class:`SchemaGraph` -- source schema knowledge for the path checker,
* ``repro lint`` (CLI) and ``MIXMediator.prepare(..., analyze=...)``
  -- the wired-in surfaces.

Nothing here is imported by the execution path unless analysis is
requested: the default query path stays byte-identical.
"""

from .analyzer import analyze_plan, analyze_query
from .browsability import browsability_pass
from .cost import cardinality_degree, cost_pass
from .examples_scan import ExampleQuery, extract_queries, scan_examples
from .findings import (
    CODES,
    AnalysisReport,
    CodeInfo,
    Finding,
    Severity,
)
from .pushdown import pushdown_pass
from .rewrites import rewrites_pass
from .schema import SchemaGraph, schema_pass, static_truth
from .walk import walk_with_paths

__all__ = [
    "analyze_plan", "analyze_query",
    "AnalysisReport", "Finding", "Severity", "CodeInfo", "CODES",
    "SchemaGraph", "static_truth",
    "browsability_pass", "schema_pass", "cost_pass", "rewrites_pass",
    "pushdown_pass",
    "cardinality_degree",
    "ExampleQuery", "extract_queries", "scan_examples",
    "walk_with_paths",
]
