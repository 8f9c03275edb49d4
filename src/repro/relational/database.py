"""Databases and the JDBC-flavoured connection facade.

The MIX relational wrapper connects "through JDBC" to its database;
:class:`Connection` is the local stand-in, built over a
:class:`Database` object, offering
``execute(sql)`` (returns a cursor) plus the catalog inspection the
wrapper needs for its database-level ``fill`` answer.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .cursor import Cursor
from .schema import Column, SchemaError, TableSchema
from .sql import execute_select, parse_select
from .table import Table

__all__ = ["Database", "Connection"]


class Database:
    """A named collection of tables."""

    def __init__(self, name: str):
        if not name or not name.replace("_", "").isalnum():
            raise SchemaError("invalid database name %r" % name)
        self.name = name
        self._tables: Dict[str, Table] = {}

    def create_table(self, name: str,
                     columns: Sequence) -> Table:
        """Create a table; ``columns`` may be Column objects or
        ``(name, type)`` pairs or bare names (typed str)."""
        if name in self._tables:
            raise SchemaError("table %r already exists" % name)
        cols: List[Column] = []
        for spec in columns:
            if isinstance(spec, Column):
                cols.append(spec)
            elif isinstance(spec, str):
                cols.append(Column(spec))
            else:
                col_name, col_type = spec
                cols.append(Column(col_name, col_type))
        table = Table(TableSchema(name, cols))
        self._tables[name] = table
        return table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise SchemaError(
                "no table %r in database %r (has: %s)"
                % (name, self.name, ", ".join(sorted(self._tables)))
            ) from None

    @property
    def table_names(self) -> List[str]:
        """Table names in creation order (the wrapper exposes them in
        this stable order)."""
        return list(self._tables)

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __repr__(self) -> str:
        return "Database(%s: %s)" % (self.name, ", ".join(self._tables))


class Connection:
    """A live connection to a database (the JDBC stand-in).

    Counts executed statements so experiments can report source-side
    query traffic alongside navigation traffic.
    """

    def __init__(self, database: Database):
        self.database = database
        self.statements_executed = 0

    def execute(self, sql: str) -> Cursor:
        """Parse and run a SELECT, returning a tuple-at-a-time cursor."""
        statement = parse_select(sql)
        self.statements_executed += 1
        return execute_select(statement, self.database.table(
            statement.table))

    def tables(self) -> List[str]:
        return self.database.table_names

    def columns(self, table: str) -> List[str]:
        return self.database.table(table).schema.column_names
