"""Relational schemas: columns, types, and validation.

The MIX relational wrapper (paper Section 4) exposes a database as an
XML tree ``db[table*[row*[att[value]]]]`` and needs the schema -- table
names, column names and types -- to answer the database-level ``fill``
request.  This module provides exactly that metadata layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

__all__ = ["ColumnType", "Column", "TableSchema", "SchemaError"]


from ..errors import PermanentSourceError


class SchemaError(PermanentSourceError):
    """Raised for invalid schemas or rows that violate them
    (permanent: the schema does not change between retries)."""


class ColumnType:
    """Supported column types and their Python representations."""

    INT = "int"
    FLOAT = "float"
    STR = "str"

    ALL = (INT, FLOAT, STR)

    _PYTHON = {INT: int, FLOAT: float, STR: str}

    @classmethod
    def validate(cls, type_name: str) -> str:
        if type_name not in cls.ALL:
            raise SchemaError("unknown column type %r" % type_name)
        return type_name

    @classmethod
    def coerce(cls, type_name: str, value):
        """Coerce ``value`` to the column's Python type.

        Accepts compatible inputs (``"3"`` for an int column) so that
        wrappers can feed string-typed XML content straight in.
        """
        if value is None:
            return None
        python_type = cls._PYTHON[type_name]
        if isinstance(value, python_type) and not (
                python_type is float and isinstance(value, bool)):
            return value
        try:
            if python_type is int and isinstance(value, str):
                return int(value.strip())
            if python_type is float and isinstance(value, (str, int)):
                return float(value)
            if python_type is str:
                return str(value)
            if python_type is int and isinstance(value, float) \
                    and value.is_integer():
                return int(value)
        except ValueError:
            pass
        raise SchemaError(
            "value %r is not coercible to column type %s"
            % (value, type_name)
        )


@dataclass(frozen=True)
class Column:
    """A named, typed column."""

    name: str
    type: str = ColumnType.STR

    def __post_init__(self):
        if not self.name or not self.name.replace("_", "").isalnum():
            raise SchemaError("invalid column name %r" % self.name)
        ColumnType.validate(self.type)


class TableSchema:
    """The schema of one table: an ordered list of typed columns."""

    def __init__(self, name: str, columns: Sequence[Column]):
        if not name or not name.replace("_", "").isalnum():
            raise SchemaError("invalid table name %r" % name)
        if not columns:
            raise SchemaError("table %r needs at least one column" % name)
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate column names in table %r" % name)
        self.name = name
        self.columns: Tuple[Column, ...] = tuple(columns)
        self._index = {c.name: i for i, c in enumerate(self.columns)}

    @property
    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    def column_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(
                "no column %r in table %r (has: %s)"
                % (name, self.name, ", ".join(self.column_names))
            ) from None

    def column(self, name: str) -> Column:
        return self.columns[self.column_index(name)]

    def coerce_row(self, values: Sequence) -> Tuple:
        """Validate and coerce one row of values against the schema."""
        if len(values) != len(self.columns):
            raise SchemaError(
                "row arity %d does not match table %r arity %d"
                % (len(values), self.name, len(self.columns))
            )
        return tuple(
            ColumnType.coerce(col.type, value)
            for col, value in zip(self.columns, values)
        )

    def __repr__(self) -> str:
        cols = ", ".join("%s %s" % (c.name, c.type) for c in self.columns)
        return "TableSchema(%s(%s))" % (self.name, cols)
