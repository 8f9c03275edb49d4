"""Workload generators and measurement utilities for the experiment
harness (benchmarks/) and the examples."""

from .measure import (
    Timer,
    bench_record,
    browse_first_k,
    format_table,
    parse_table,
)
from .workloads import (
    ALLBOOKS_VIEW_NAME,
    CHEAP_DB_BOOKS_QUERY,
    HOMES_SCHOOLS_QUERY,
    allbooks_plan,
    book_catalog,
    homes_and_schools,
    two_bookstores,
)

__all__ = [
    "homes_and_schools", "book_catalog", "two_bookstores",
    "allbooks_plan", "HOMES_SCHOOLS_QUERY", "CHEAP_DB_BOOKS_QUERY",
    "ALLBOOKS_VIEW_NAME",
    "browse_first_k", "format_table",
    "parse_table", "bench_record", "Timer",
]
