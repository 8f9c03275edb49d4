"""The relational LXP wrapper (paper Section 4, "Relational LXP
Wrapper"), over the :mod:`repro.relational` engine.

The exported XML view is::

    db_name[ table1[ row1[a11[v11], ...], ..., hole ], table2[...], ... ]

with the paper's stateless hole identifiers::

    hole[db_name]                  the whole database
    hole[db_name.table]            a table's rows, from the start
    hole[db_name.table.j]          rows j, j+1, ... of a table

On each row-level fill the wrapper returns the next ``n`` tuples
*completely* ("the wrapper does not have to deal with navigations at
the attribute level") and one trailing hole when rows remain.  The
underlying cursor traffic is visible via the connection's statement
counter and each cursor's ``advances`` -- the quantities experiment E4
sweeps against chunk size.
"""

from __future__ import annotations

from itertools import islice, repeat
from typing import Dict, List, Optional, Tuple

from ..algebra.predicates import compare_values
from ..buffer.holes import Fragments, LXPProtocolError
from ..buffer.lxp import LXPServer, LXPStats, measure_fragment
from ..pushdown.compiled import (
    CompiledSubplan,
    RelationalPushRequest,
    TableScan,
    child_restriction,
    comparison_filter,
    first_labels,
    single_hop_value_column,
    sql_exact_filter,
)
from ..relational.database import Connection
from ..runtime.config import validate_granularity

__all__ = ["RelationalLXPWrapper", "RelationalQueryWrapper"]


class RelationalLXPWrapper(LXPServer):
    """LXP server over a relational connection.

    Parameters
    ----------
    connection:
        An open :class:`repro.relational.Connection`.
    chunk_size:
        ``n``: rows shipped per table/row-level fill.
    """

    def __init__(self, connection: Connection,
                 chunk_size: Optional[int] = None):
        self.connection = connection
        self.chunk_size, _ = validate_granularity(chunk_size)
        self.stats = LXPStats()
        #: per-table row cursors kept across fills so that consecutive
        #: row-level fills advance rather than restart
        self._cursors: Dict[str, _ResumableCursor] = {}

    @property
    def db_name(self) -> str:
        return self.connection.database.name

    # -- LXP -----------------------------------------------------------------
    def get_root(self) -> Fragments:
        return Fragments.hole(self.db_name)

    def fill(self, hole_id) -> Fragments:
        parts = str(hole_id).split(".")
        if parts[0] != self.db_name:
            raise LXPProtocolError(
                "hole %r does not belong to database %r"
                % (hole_id, self.db_name))
        if len(parts) == 1:
            reply = self._fill_database()
        elif len(parts) == 2:
            reply = self._fill_rows(parts[1], 0)
        elif len(parts) == 3:
            reply = self._fill_rows(parts[1], int(parts[2]))
        else:
            raise LXPProtocolError("malformed hole id %r" % (hole_id,))
        measure_fragment(self.stats, reply)
        return reply

    # -- levels ---------------------------------------------------------------
    def _fill_database(self) -> Fragments:
        """Database level: the schema -- one table element per table,
        rows unexplored."""
        return Fragments.element(self.db_name, *[
            Fragments.element(name, Fragments.hole(
                "%s.%s" % (self.db_name, name)))
            for name in self.connection.tables()])

    def _fill_rows(self, table: str, start: int) -> Fragments:
        columns = self.connection.columns(table)
        cursor = self._cursors.get(table)
        if cursor is None:
            cursor = self._cursors[table] = _ResumableCursor(
                self.connection, "SELECT * FROM %s" % table)
        rows, more = cursor.chunk(start, self.chunk_size)
        end = start + len(rows)
        reply = _rows(columns, zip(
            map("row%d".__mod__, range(start + 1, end + 1)), rows))
        return Fragments.join((reply, Fragments.hole(
            "%s.%s.%d" % (self.db_name, table, end)))) if more else reply

    # -- pushdown -------------------------------------------------------------
    def push_compile(self, compiled: CompiledSubplan
                     ) -> Optional[RelationalPushRequest]:
        """Compile a pushable chain into one merged SELECT per table.

        Tables the chain can never reach are dropped entirely; within
        a kept table, recognized ``col OP literal`` filters become row
        filters and -- when the row elements themselves are
        unobservable -- unread columns are projected away and
        surviving rows renumbered.  Anything not provably foldable is
        simply shipped, leaving the mediator's residual replay to
        finish the job, so this never declines.
        """
        keep = child_restriction(compiled, compiled.root_var)
        scans = tuple(
            self._compile_scan(compiled, table)
            for table in self.connection.tables()
            if keep is None or table in keep)
        return RelationalPushRequest(self.db_name, scans)

    def _compile_scan(self, compiled: CompiledSubplan,
                      table: str) -> TableScan:
        # The canonical row step: the unique chain hop out of the
        # database root that can reach this table's rows, in the
        # ``table._`` shape the export guarantees binds whole rows.
        candidates = []
        for step in compiled.steps_from(compiled.root_var):
            labels = first_labels(step.path)
            if labels is None or table in labels:
                candidates.append(step)
        if len(candidates) != 1 or \
                single_hop_value_column(candidates[0].path) != table:
            return TableScan(table)
        row_var = candidates[0].out_var
        renumber = row_var not in compiled.output_vars
        filters = self._row_filters(compiled, row_var, table,
                                    sql_only=renumber)
        columns: Optional[Tuple[str, ...]] = None
        if renumber:
            keep_cols = child_restriction(compiled, row_var)
            if keep_cols is not None:
                all_cols = self.connection.columns(table)
                selected = tuple(c for c in all_cols if c in keep_cols)
                if selected and len(selected) < len(all_cols):
                    columns = selected
        return TableScan(table, columns, filters, renumber=renumber)

    def _row_filters(self, compiled: CompiledSubplan, row_var: str,
                     table: str, sql_only: bool
                     ) -> Tuple[Tuple[str, str, str], ...]:
        """The chain filters this table scan may apply itself.

        A filter folds only when its variable is bound by a single-hop
        ``col._`` step out of the row; with ``sql_only`` (the
        renumbering SELECT actually executes the WHERE clause) it must
        additionally name a real column and survive the SQL dialect's
        weak typing exactly (``sql_exact_filter``) -- otherwise the
        wrapper evaluates it with the mediator's own
        ``compare_values``, where a column the schema lacks just means
        every row is dead, exactly as the lazy chain would find.
        """
        steps_by_out = {s.out_var: s for s in compiled.steps}
        schema = set(self.connection.columns(table))
        filters = []
        for predicate in compiled.filters:
            recognized = comparison_filter(predicate)
            if recognized is None:
                continue
            var, op, literal = recognized
            step = steps_by_out.get(var)
            if step is None or step.parent_var != row_var:
                continue
            column = single_hop_value_column(step.path)
            if column is None:
                continue
            if sql_only and (column not in schema
                             or not sql_exact_filter(op, literal)):
                continue
            filters.append((column, op, literal))
        return tuple(filters)

    def push(self, request: RelationalPushRequest) -> Fragments:
        """Evaluate a compiled request: one native statement per scan,
        shipped as the complete export, one hole-free reply."""
        if not isinstance(request, RelationalPushRequest) or \
                request.database != self.db_name:
            raise LXPProtocolError(
                "request %r does not belong to database %r"
                % (request, self.db_name))
        return Fragments.element(self.db_name, *[
            Fragments.element(scan.table, self._scan(scan))
            for scan in request.scans])

    def _scan(self, scan: TableScan) -> Fragments:
        # (a renumbering scan's SQL has already filtered its rows)
        cursor = self.connection.execute(
            scan.sql if scan.renumber else "SELECT * FROM %s" % scan.table)
        columns = cursor.column_names
        return _rows(columns, [
            ("row%d" % number, row) for number, row
            in enumerate(iter(cursor.advance, None), 1)
            if scan.renumber or _row_passes(columns, row, scan.row_filters)])


def _row_passes(columns: Tuple[str, ...], row,
                filters: Tuple[Tuple[str, str, str], ...]) -> bool:
    """Mediator-exact row filtering for un-renumbered scans: a row
    survives only if every filtered cell would have produced a binding
    the chain's Select keeps."""
    if not filters:
        return True
    by_column = dict(zip(columns, row))
    for column, op, literal in filters:
        value = by_column.get(column)
        if value is None:
            return False
        text = _atom(value)
        if text == "" or not compare_values(text, op, literal):
            return False
    return True


def _atom(value) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def _rows(columns, labeled_rows) -> Fragments:
    """Each ``(label, row)`` as ``label[col[value], ...]`` (just ``col``
    for NULL and for the empty string), one reply: one loop, the cell
    text as :func:`_atom` has it."""
    labels, sizes = [], []
    for row_label, row in labeled_rows:
        slot = len(sizes)
        labels.append(row_label)
        sizes.append(1)
        for column, value in zip(columns, row):
            text = "" if value is None else str(int(value)) \
                if isinstance(value, float) and value.is_integer() \
                else str(value)
            labels += (column, text) if text else (column,)
            sizes += (2, 1) if text else (1,)
        sizes[slot] = len(sizes) - slot
    return Fragments(tuple(labels), tuple(sizes))


class _ResumableCursor:
    """Row offsets over forward-only cursors: the rows of ``sql`` from
    any ``start``.

    The live cursor is reused when a request continues where the
    previous one stopped (the common forward-browsing case); any other
    offset re-runs the statement and skips forward (real systems would
    use scrollable cursors -- the re-run cost is visible in the
    connection's statement counter, which is the honest substitute).
    """

    def __init__(self, connection: Connection, sql: str):
        self.connection = connection
        self.sql = sql
        self._cursor = None
        self._pos = 0

    @property
    def column_names(self) -> List[str]:
        """The statement's columns (after the first :meth:`chunk`)."""
        return self._cursor.column_names

    def chunk(self, start: int, size: int) -> Tuple[List[tuple], bool]:
        """Up to ``size`` rows from row ``start`` on, and whether rows
        remain after them."""
        cursor = self._cursor
        if cursor is None or self._pos != start:
            cursor = self._cursor = self.connection.execute(self.sql)
            skipped = 0
            while skipped < start and cursor.advance() is not None:
                skipped += 1
        # advance() on the cursor as the connection handed it out (not
        # its fetch_chunk): an instrumented connection counts there.
        rows = list(islice(iter(cursor.advance, None), size))
        self._pos = start + len(rows)
        return rows, len(rows) == size and not cursor.exhausted


class RelationalQueryWrapper(LXPServer):
    """A relational wrapper serving one SQL query's result (Example 5
    and Figure 6 of the paper).

    "Consider a relational wrapper that has translated a XMAS query
    into an SQL query.  The resulting view on the source has the
    following format: view[tuple[att1[...], ..., attk[...]]]".

    The wrapper holds the live cursor; each fill advances it by up to
    ``chunk_size`` tuples and ships them *completely* (attribute-level
    navigation never reaches the database).  Hole ids are plain row
    offsets; because cursors are forward-only, random re-fills re-run
    the query and skip (footnote: real systems would use scrollable
    cursors -- the re-run cost is visible in the connection's
    statement counter, which is the honest substitute).
    """

    def __init__(self, connection: Connection, sql: str,
                 chunk_size: Optional[int] = None,
                 view_label: str = "view", tuple_label: str = "tuple"):
        chunk_size, _ = validate_granularity(chunk_size)
        self.connection = connection
        self.sql = sql
        self.chunk_size = chunk_size
        self.view_label = view_label
        self.tuple_label = tuple_label
        self.stats = LXPStats()
        self._cursor = _ResumableCursor(connection, sql)

    def get_root(self) -> Fragments:
        return Fragments.hole(("view",))

    def _ship_tuples(self, start: int) -> Fragments:
        """The next chunk of tuples from ``start``."""
        rows, more = self._cursor.chunk(start, self.chunk_size)
        reply = _rows(self._cursor.column_names,
                      zip(repeat(self.tuple_label), rows))
        return Fragments.join((reply, Fragments.hole(
            ("rows", start + len(rows))))) if more else reply

    def fill(self, hole_id) -> Fragments:
        if hole_id == ("view",):
            reply = Fragments.element(self.view_label,
                                      self._ship_tuples(0))
        else:
            try:
                kind, start = hole_id
            except (TypeError, ValueError):
                raise LXPProtocolError(
                    "unknown hole id %r" % (hole_id,))
            if kind != "rows":
                raise LXPProtocolError(
                    "unknown hole id %r" % (hole_id,))
            reply = self._ship_tuples(start)
        measure_fragment(self.stats, reply)
        return reply
