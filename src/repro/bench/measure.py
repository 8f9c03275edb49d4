"""Measurement utilities shared by the benchmark harness and examples:
navigation workloads, stat rows, and a fixed-width table printer (the
shape the experiment scripts print their series in)."""

from __future__ import annotations

import re
import time
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from ..client.element import XMLElement

__all__ = ["browse_first_k", "format_table",
           "parse_table", "bench_record", "Timer"]


def browse_first_k(root: XMLElement, k: int,
                   per_result: Optional[Callable[[XMLElement], None]]
                   = None) -> int:
    """The paper's canonical interaction: look at the first ``k``
    results of a broad query, then stop.

    Visits the first k children of the answer root, forcing each one's
    subtree (as a user rendering a result row would); returns how many
    results were actually available.
    """
    seen = 0
    child = root.first_child()
    while child is not None and seen < k:
        if per_result is not None:
            per_result(child)
        else:
            child.to_tree()  # force the result's content
        seen += 1
        child = child.right()
    return seen


class Timer:
    """A context-managed wall-clock timer (milliseconds)."""

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        self.ms = 0.0
        return self

    def __exit__(self, *exc) -> None:
        self.ms = (time.perf_counter() - self._start) * 1000.0


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """Render rows as a fixed-width text table."""
    rows = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    rule = "  ".join("-" * w for w in widths)
    body = [
        "  ".join(cell.rjust(widths[i]) if _numeric(cell)
                  else cell.ljust(widths[i])
                  for i, cell in enumerate(row))
        for row in rows
    ]
    return "\n".join([line, rule] + body)


def parse_table(text: str) -> Tuple[List[str], List[dict]]:
    """The inverse of :func:`format_table`: headers plus one dict per
    row, with numeric-looking cells converted back to numbers.

    Columns are recognized by the two-space gutter ``format_table``
    emits, so round-tripping a rendered table is lossless for the
    tables the experiment harness writes.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) < 2:
        return [], []
    headers = re.split(r"\s{2,}", lines[0].strip())
    rows: List[dict] = []
    for line in lines[2:]:  # lines[1] is the dashed rule
        cells = re.split(r"\s{2,}", line.strip())
        rows.append({header: _parse_cell(cell)
                     for header, cell in zip(headers, cells)})
    return headers, rows


def bench_record(name: str, table_text: str,
                 extra: Optional[dict] = None) -> dict:
    """A machine-readable record of one experiment: the parsed result
    table plus optional ``extra`` measurements (wall-clock timings,
    cache hit/miss/eviction counters).  The harness serializes this as
    ``BENCH_<name>.json`` next to the text table.
    """
    columns, rows = parse_table(table_text)
    record = {"experiment": name, "columns": columns, "rows": rows}
    if extra:
        record["extra"] = extra
    return record


def _parse_cell(cell: str):
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell


def _cell(value) -> str:
    if isinstance(value, float):
        return "%.2f" % value
    return str(value)


def _numeric(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False
