"""Tables: ordered collections of typed rows."""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple

from .schema import TableSchema

__all__ = ["Table"]


class Table:
    """An in-memory table with insertion-ordered rows.

    Row order is stable and observable: the relational wrapper's hole
    identifiers (``db.table.row_number``) index into this order, so it
    must not change behind a running navigation.
    """

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self._rows: List[Tuple] = []

    @property
    def name(self) -> str:
        return self.schema.name

    def insert(self, values: Sequence) -> None:
        """Append one row (validated and coerced against the schema)."""
        self._rows.append(self.schema.coerce_row(values))

    def insert_many(self, rows: Iterable[Sequence]) -> None:
        for row in rows:
            self.insert(row)

    def row(self, index: int) -> Tuple:
        """The ``index``-th row (0-based)."""
        return self._rows[index]

    def rows(self) -> Iterator[Tuple]:
        """Iterate rows in insertion order."""
        return iter(self._rows)

    def value(self, index: int, column: str):
        """One cell, addressed by row index and column name."""
        return self._rows[index][self.schema.column_index(column)]

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:
        return "Table(%s, %d rows)" % (self.schema.name, len(self._rows))
