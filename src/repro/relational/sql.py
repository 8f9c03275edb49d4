"""A small SQL SELECT dialect over the in-memory engine.

The MIX relational wrapper translates XMAS subqueries into SQL before
opening a cursor; this module supplies the receiving end::

    SELECT * | col [, col ...]
    FROM table
    [WHERE col OP literal [AND ...]]      OP in = <> != < <= > >= LIKE
    [ORDER BY col [ASC|DESC] [, ...]]
    [LIMIT n]

Execution is demand-driven: filtering and projection are generators, so
an unread cursor costs nothing.  ``ORDER BY`` necessarily materializes
its input first -- the relational mirror of the paper's *unbrowsable*
class.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from .cursor import Cursor
from .table import Table

__all__ = ["SQLError", "SelectStatement", "Condition", "OrderKey",
           "parse_select", "execute_select"]


from ..errors import PermanentSourceError


class SQLError(PermanentSourceError):
    """Raised for SQL syntax or semantic errors (permanent: the same
    statement fails the same way on every retry)."""


_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<string>'(?:[^']|'')*')"
    r"|(?P<number>-?\d+(?:\.\d+)?)"
    r"|(?P<op><>|!=|<=|>=|=|<|>)"
    r"|(?P<punct>[,*()])"
    r"|(?P<word>[A-Za-z_][A-Za-z0-9_.]*)"
    r")"
)

_KEYWORDS = {"select", "from", "where", "and", "order", "by", "asc",
             "desc", "limit", "like"}


def _tokenize(text: str) -> List[Tuple[str, str]]:
    tokens: List[Tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match or match.end() == pos:
            remainder = text[pos:].strip()
            if not remainder:
                break
            raise SQLError("cannot tokenize SQL at %r" % remainder[:20])
        pos = match.end()
        kind = match.lastgroup
        value = match.group(kind)
        if kind == "word" and value.lower() in _KEYWORDS:
            tokens.append(("kw", value.lower()))
        else:
            tokens.append((kind, value))
    return tokens


@dataclass(frozen=True)
class Condition:
    """One ``column OP literal`` conjunct of the WHERE clause."""

    column: str
    op: str
    value: object

    def evaluate(self, row_value) -> bool:
        if self.op == "like":
            return _like_match(str(self.value), str(row_value))
        if row_value is None:
            return False
        left, right = _align_types(row_value, self.value)
        if self.op == "=":
            return left == right
        if self.op in ("<>", "!="):
            return left != right
        if self.op == "<":
            return left < right
        if self.op == "<=":
            return left <= right
        if self.op == ">":
            return left > right
        if self.op == ">=":
            return left >= right
        raise SQLError("unknown operator %r" % self.op)


def _align_types(left, right):
    """Make the comparison types compatible (SQL-ish weak typing)."""
    if isinstance(left, (int, float)) and isinstance(right, str):
        try:
            right = float(right) if "." in right else int(right)
        except ValueError:
            left = str(left)
    elif isinstance(left, str) and isinstance(right, (int, float)):
        try:
            left = float(left) if "." in left else int(left)
        except ValueError:
            right = str(right)
    return left, right


def _like_match(pattern: str, value: str) -> bool:
    regex = re.escape(pattern).replace("%", ".*").replace("_", ".")
    return re.fullmatch(regex, value) is not None


@dataclass(frozen=True)
class OrderKey:
    column: str
    descending: bool = False


@dataclass
class SelectStatement:
    """Parsed form of a SELECT statement."""

    columns: Optional[List[str]]  # None means '*'
    table: str
    conditions: List[Condition] = field(default_factory=list)
    order_by: List[OrderKey] = field(default_factory=list)
    limit: Optional[int] = None


class _TokenStream:
    def __init__(self, tokens: List[Tuple[str, str]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Optional[Tuple[str, str]]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Tuple[str, str]:
        token = self.peek()
        if token is None:
            raise SQLError("unexpected end of SQL")
        self.pos += 1
        return token

    def expect_kw(self, keyword: str) -> None:
        token = self.next()
        if token != ("kw", keyword):
            raise SQLError("expected %s, got %r" % (keyword.upper(), token[1]))

    def at_kw(self, keyword: str) -> bool:
        return self.peek() == ("kw", keyword)


def parse_select(sql: str) -> SelectStatement:
    """Parse one SELECT statement into its AST."""
    stream = _TokenStream(_tokenize(sql))
    stream.expect_kw("select")

    columns: Optional[List[str]]
    if stream.peek() == ("punct", "*"):
        stream.next()
        columns = None
    else:
        columns = [_expect_name(stream)]
        while stream.peek() == ("punct", ","):
            stream.next()
            columns.append(_expect_name(stream))

    stream.expect_kw("from")
    table = _expect_name(stream)

    statement = SelectStatement(columns=columns, table=table)

    if stream.at_kw("where"):
        stream.next()
        statement.conditions.append(_parse_condition(stream))
        while stream.at_kw("and"):
            stream.next()
            statement.conditions.append(_parse_condition(stream))

    if stream.at_kw("order"):
        stream.next()
        stream.expect_kw("by")
        statement.order_by.append(_parse_order_key(stream))
        while stream.peek() == ("punct", ","):
            stream.next()
            statement.order_by.append(_parse_order_key(stream))

    if stream.at_kw("limit"):
        stream.next()
        kind, value = stream.next()
        if kind != "number" or "." in value:
            raise SQLError("LIMIT expects an integer")
        statement.limit = int(value)

    if stream.peek() is not None:
        raise SQLError("trailing tokens after statement: %r"
                       % (stream.peek()[1],))
    return statement


def _expect_name(stream: _TokenStream) -> str:
    kind, value = stream.next()
    if kind != "word":
        raise SQLError("expected an identifier, got %r" % value)
    return value


def _parse_condition(stream: _TokenStream) -> Condition:
    column = _expect_name(stream)
    kind, op = stream.next()
    if kind == "kw" and op == "like":
        op = "like"
    elif kind != "op":
        raise SQLError("expected a comparison operator, got %r" % op)
    value = _parse_literal(stream)
    return Condition(column, op, value)


def _parse_order_key(stream: _TokenStream) -> OrderKey:
    column = _expect_name(stream)
    descending = False
    if stream.at_kw("desc"):
        stream.next()
        descending = True
    elif stream.at_kw("asc"):
        stream.next()
    return OrderKey(column, descending)


def _parse_literal(stream: _TokenStream):
    kind, value = stream.next()
    if kind == "string":
        return value[1:-1].replace("''", "'")
    if kind == "number":
        return float(value) if "." in value else int(value)
    raise SQLError("expected a literal, got %r" % value)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------

def execute_select(statement: SelectStatement, table: Table) -> Cursor:
    """Execute a parsed SELECT against ``table``, returning a cursor."""
    if statement.table != table.name:
        raise SQLError(
            "statement targets table %r, got table %r"
            % (statement.table, table.name)
        )
    schema = table.schema
    condition_indexes = [
        (schema.column_index(c.column), c) for c in statement.conditions
    ]
    if statement.columns is None:
        out_names = schema.column_names
        projection = None
    else:
        projection = [schema.column_index(c) for c in statement.columns]
        out_names = list(statement.columns)

    def generate() -> Iterator[Tuple]:
        source: Iterator[Tuple] = table.rows()
        if statement.order_by:
            # ORDER BY must see every row before emitting the first one:
            # the relational analogue of an unbrowsable view.
            keys = [(schema.column_index(k.column), k.descending)
                    for k in statement.order_by]
            rows = list(source)
            for index, descending in reversed(keys):
                rows.sort(key=lambda row: _sort_key(row[index]),
                          reverse=descending)
            source = iter(rows)
        emitted = 0
        for row in source:
            if all(cond.evaluate(row[idx])
                   for idx, cond in condition_indexes):
                if projection is not None:
                    row = tuple(row[i] for i in projection)
                yield row
                emitted += 1
                if statement.limit is not None \
                        and emitted >= statement.limit:
                    return

    return Cursor(out_names, generate())


def _sort_key(value):
    """Total order across None/number/str for ORDER BY."""
    if value is None:
        return (0, "", 0.0)
    if isinstance(value, (int, float)):
        return (1, "", float(value))
    return (2, str(value), 0.0)
