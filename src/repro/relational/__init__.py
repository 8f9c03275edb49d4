"""In-memory relational engine: the substrate behind the MIX relational
wrapper (paper Section 4, Example 5).

Provides schemas, insertion-ordered tables, a small SQL SELECT dialect,
tuple-at-a-time cursors with advance accounting, and a JDBC-flavoured
connection facade over a :class:`Database`.
"""

from .cursor import Cursor
from .database import Connection, Database
from .schema import Column, ColumnType, SchemaError, TableSchema
from .sql import (
    Condition,
    OrderKey,
    SelectStatement,
    SQLError,
    execute_select,
    parse_select,
)
from .table import Table

__all__ = [
    "Column", "ColumnType", "TableSchema", "SchemaError",
    "Table", "Cursor",
    "Database", "Connection",
    "SQLError", "SelectStatement", "Condition", "OrderKey",
    "parse_select", "execute_select",
]
