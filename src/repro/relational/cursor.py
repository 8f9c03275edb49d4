"""Tuple-at-a-time cursors: the source-side navigation quantum.

"A relational wrapper will translate this into a request to advance the
relational cursor and fetch the complete next tuple (since the tuple is
the quantum of navigation in relational databases)." -- paper, Ex. 5.

Cursors count their advances so the granularity experiments can compare
cursor traffic against DOM-VXD command traffic.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

__all__ = ["Cursor"]


class Cursor:
    """A forward-only cursor over a row iterator.

    The cursor pulls lazily from the underlying iterator: creating one
    performs no work, matching the demand-driven design of the stack
    above it.
    """

    def __init__(self, column_names: Sequence[str],
                 rows: Iterator[Tuple]):
        self.column_names: List[str] = list(column_names)
        self._rows = iter(rows)
        self._current: Optional[Tuple] = None
        self._exhausted = False
        #: number of advance() calls that touched the underlying store
        self.advances = 0

    def advance(self) -> Optional[Tuple]:
        """Move to the next tuple and return it (None when exhausted)."""
        if self._exhausted:
            return None
        self.advances += 1
        try:
            self._current = next(self._rows)
        except StopIteration:
            self._current = None
            self._exhausted = True
        return self._current

    @property
    def current(self) -> Optional[Tuple]:
        """The tuple the cursor is positioned on (None before the first
        advance and after exhaustion)."""
        return self._current

    def fetch_chunk(self, size: int) -> List[Tuple]:
        """Advance up to ``size`` times and return the tuples fetched.

        This is the bulk-transfer entry point used by the buffered
        relational wrapper ("chunks of 100 tuples at a time").
        """
        if size <= 0:
            raise ValueError("chunk size must be positive, got %d" % size)
        chunk: List[Tuple] = []
        for _ in range(size):
            row = self.advance()
            if row is None:
                break
            chunk.append(row)
        return chunk

    @property
    def exhausted(self) -> bool:
        return self._exhausted

    def as_dicts(self) -> Iterator[dict]:
        """Drain the cursor into column-name dictionaries (testing aid)."""
        while True:
            row = self.advance()
            if row is None:
                return
            yield dict(zip(self.column_names, row))
