"""Unit tests for the in-memory relational engine."""

import pytest

from repro.relational import (
    Column,
    ColumnType,
    Connection,
    Database,
    SchemaError,
    SQLError,
    Table,
    TableSchema,
    parse_select,
)


@pytest.fixture
def homes_db():
    db = Database("homesdb")
    table = db.create_table(
        "homes", [("addr", "str"), ("zip", "int"), ("price", "int")])
    table.insert_many([
        ("12 Shore Dr", 91220, 500000),
        ("3 Hill Rd", 91223, 350000),
        ("9 Bay Ct", 91220, 725000),
        ("1 Mesa Blvd", 91224, 410000),
    ])
    return db


class TestSchema:
    def test_column_types_validated(self):
        with pytest.raises(SchemaError):
            Column("x", "blob")

    def test_coercion(self):
        assert ColumnType.coerce("int", "42") == 42
        assert ColumnType.coerce("float", 3) == 3.0
        assert ColumnType.coerce("str", 91220) == "91220"
        assert ColumnType.coerce("int", None) is None

    def test_bad_coercion(self):
        with pytest.raises(SchemaError):
            ColumnType.coerce("int", "not a number")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a"), Column("a")])

    def test_row_arity_checked(self):
        schema = TableSchema("t", [Column("a"), Column("b")])
        with pytest.raises(SchemaError):
            schema.coerce_row(["only one"])

    def test_column_index(self):
        schema = TableSchema("t", [Column("a"), Column("b")])
        assert schema.column_index("b") == 1
        with pytest.raises(SchemaError):
            schema.column_index("c")


class TestTable:
    def test_insert_preserves_order(self, homes_db):
        table = homes_db.table("homes")
        assert [r[0] for r in table.rows()] == [
            "12 Shore Dr", "3 Hill Rd", "9 Bay Ct", "1 Mesa Blvd"]

    def test_value_by_name(self, homes_db):
        assert homes_db.table("homes").value(2, "zip") == 91220

    def test_coercion_on_insert(self, homes_db):
        table = homes_db.table("homes")
        table.insert(("X", "91225", "1"))
        assert table.row(4) == ("X", 91225, 1)


class TestDatabase:
    def test_duplicate_table_rejected(self, homes_db):
        with pytest.raises(SchemaError):
            homes_db.create_table("homes", ["x"])

    def test_unknown_table(self, homes_db):
        with pytest.raises(SchemaError):
            homes_db.table("nope")


class TestSQLParsing:
    def test_star(self):
        stmt = parse_select("SELECT * FROM homes")
        assert stmt.columns is None
        assert stmt.table == "homes"

    def test_columns_and_where(self):
        stmt = parse_select(
            "SELECT addr, price FROM homes WHERE zip = 91220 AND "
            "price >= 500000")
        assert stmt.columns == ["addr", "price"]
        assert len(stmt.conditions) == 2
        assert stmt.conditions[0].op == "="

    def test_string_literal_with_quote(self):
        stmt = parse_select("SELECT * FROM t WHERE a = 'O''Hara'")
        assert stmt.conditions[0].value == "O'Hara"

    def test_order_and_limit(self):
        stmt = parse_select(
            "SELECT * FROM homes ORDER BY price DESC, addr LIMIT 2")
        assert [(k.column, k.descending) for k in stmt.order_by] == [
            ("price", True), ("addr", False)]
        assert stmt.limit == 2

    @pytest.mark.parametrize("bad", [
        "",
        "SELECT FROM homes",
        "SELECT * homes",
        "SELECT * FROM homes WHERE",
        "SELECT * FROM homes LIMIT x",
        "SELECT * FROM homes garbage",
        "UPDATE homes SET x = 1",
    ])
    def test_syntax_errors(self, bad):
        with pytest.raises(SQLError):
            parse_select(bad)


class TestExecution:
    def _run(self, db, sql):
        return list(Connection(db).execute(sql).as_dicts())

    def test_filter(self, homes_db):
        rows = self._run(
            homes_db, "SELECT addr FROM homes WHERE zip = 91220")
        assert [r["addr"] for r in rows] == ["12 Shore Dr", "9 Bay Ct"]

    def test_comparison_operators(self, homes_db):
        rows = self._run(
            homes_db, "SELECT addr FROM homes WHERE price < 420000")
        assert len(rows) == 2

    def test_like(self, homes_db):
        rows = self._run(
            homes_db, "SELECT addr FROM homes WHERE addr LIKE '%Dr'")
        assert rows == [{"addr": "12 Shore Dr"}]

    def test_order_by(self, homes_db):
        rows = self._run(
            homes_db, "SELECT price FROM homes ORDER BY price")
        assert [r["price"] for r in rows] == [
            350000, 410000, 500000, 725000]

    def test_limit(self, homes_db):
        rows = self._run(homes_db, "SELECT * FROM homes LIMIT 2")
        assert len(rows) == 2

    def test_projection_order(self, homes_db):
        cursor = Connection(homes_db).execute(
            "SELECT zip, addr FROM homes LIMIT 1")
        assert cursor.column_names == ["zip", "addr"]

    def test_wrong_table_rejected(self, homes_db):
        with pytest.raises(SchemaError):
            self._run(homes_db, "SELECT * FROM nothere")


class TestCursor:
    def test_tuple_at_a_time(self, homes_db):
        cursor = Connection(homes_db).execute("SELECT * FROM homes")
        assert cursor.current is None
        first = cursor.advance()
        assert first[0] == "12 Shore Dr"
        assert cursor.current is first
        assert cursor.advances == 1

    def test_exhaustion(self, homes_db):
        cursor = Connection(homes_db).execute(
            "SELECT * FROM homes LIMIT 1")
        cursor.advance()
        assert cursor.advance() is None
        assert cursor.exhausted
        assert cursor.advance() is None  # stays exhausted, no count
        assert cursor.advances == 2

    def test_fetch_chunk(self, homes_db):
        cursor = Connection(homes_db).execute("SELECT * FROM homes")
        chunk = cursor.fetch_chunk(3)
        assert len(chunk) == 3
        rest = cursor.fetch_chunk(3)
        assert len(rest) == 1

    def test_chunk_size_positive(self, homes_db):
        cursor = Connection(homes_db).execute("SELECT * FROM homes")
        with pytest.raises(ValueError):
            cursor.fetch_chunk(0)

    def test_lazy_no_work_before_advance(self, homes_db):
        conn = Connection(homes_db)
        conn.execute("SELECT * FROM homes ORDER BY price")
        assert conn.statements_executed == 1  # parsing only; no scan yet
