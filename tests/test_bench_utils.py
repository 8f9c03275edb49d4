"""Tests for the workload generators and measurement utilities."""

import pytest

from repro.bench import (
    HOMES_SCHOOLS_QUERY,
    Timer,
    allbooks_plan,
    book_catalog,
    browse_first_k,
    format_table,
    homes_and_schools,
    two_bookstores,
)
from repro.client import open_virtual_document
from repro.mediator import MIXMediator
from repro.navigation import MaterializedDocument


class TestHomesAndSchools:
    def test_shapes(self):
        sources = homes_and_schools(10, schools_per_zip=3)
        homes = sources["homesSrc"].child(0)
        schools = sources["schoolsSrc"].child(0)
        assert len(homes.children) == 10
        assert len(schools.children) == 30
        assert all(h.label == "home" for h in homes.children)

    def test_zip_distribution(self):
        sources = homes_and_schools(10, zips=2)
        homes = sources["homesSrc"].child(0)
        zips = {h.find_child("zip").text() for h in homes.children}
        assert zips == {"91000", "91001"}

    def test_deterministic(self):
        a = homes_and_schools(5, seed=3)
        b = homes_and_schools(5, seed=3)
        assert a["homesSrc"] == b["homesSrc"]
        c = homes_and_schools(5, seed=4)
        assert a["homesSrc"] != c["homesSrc"]

    def test_query_runs_over_generated_data(self):
        med = MIXMediator()
        for url, tree in homes_and_schools(6).items():
            med.register_source(url, MaterializedDocument(tree))
        answer = med.prepare(HOMES_SCHOOLS_QUERY).materialize()
        assert len(answer.children) == 6  # every home has schools


class TestBookCatalogs:
    def test_catalog_shape(self):
        books = book_catalog("amazon", 12, seed=1)
        assert len(books) == 12
        first = books[0]
        assert [c.label for c in first.children] == [
            "title", "author", "price", "isbn"]

    def test_prices_in_range(self):
        books = book_catalog("x", 50, seed=2, price_low=5,
                             price_high=9)
        prices = [int(b.find_child("price").text()) for b in books]
        assert all(5 <= p <= 9 for p in prices)

    def test_deterministic_across_processes(self):
        # No builtin hash(): same seed, same catalog, always.
        a = book_catalog("amazon", 5, seed=7)
        b = book_catalog("amazon", 5, seed=7)
        assert a == b

    def test_two_bookstores_overlap(self):
        amazon, bn = two_bookstores(20, overlap=0.5)
        amazon_isbns = {b.find_child("isbn").text() for b in amazon}
        bn_isbns = {b.find_child("isbn").text() for b in bn}
        assert len(amazon_isbns & bn_isbns) == 10

    def test_allbooks_plan_validates(self):
        plan = allbooks_plan("a", "b")
        plan.validate()
        assert plan.var is not None


class TestMeasureUtilities:
    def _root(self, n=5):
        from repro.xtree import Tree, elem
        tree = Tree("hits", [elem("book", elem("t", str(i)))
                             for i in range(n)])
        return open_virtual_document(MaterializedDocument(tree))

    def test_browse_first_k_counts(self):
        assert browse_first_k(self._root(5), 3) == 3
        assert browse_first_k(self._root(2), 10) == 2

    def test_browse_first_k_callback(self):
        seen = []
        browse_first_k(self._root(4), 2,
                       per_result=lambda b: seen.append(b.tag))
        assert seen == ["book", "book"]

    def test_timer(self):
        with Timer() as timer:
            sum(range(1000))
        assert timer.ms >= 0.0

    def test_format_table_alignment(self):
        table = format_table(["name", "n"], [["alpha", 1],
                                             ["b", 22]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        # numeric cells right-aligned under their column
        assert lines[2].rstrip().endswith("1")
        assert lines[3].rstrip().endswith("22")

    def test_format_table_floats(self):
        table = format_table(["x"], [[1.23456]])
        assert "1.23" in table


class TestLoadgenSurvivesABadPeer:
    """A server that answers with something other than a frame costs
    the load generator a session, never a worker thread."""

    @pytest.mark.parametrize("answer", [
        b"\x00\x00\x00\x04not-json",        # a frame of non-JSON
        b"\x7f\xff\xff\xff",                # a 2 GiB length prefix
        b'\x00\x00\x00\x0b{"ok":true}',     # ok, but no root hole
    ], ids=["garbage", "oversized", "misshapen"])
    def test_every_session_is_attempted(self, answer):
        import socket
        import threading

        from repro.bench.loadgen import run_load

        sessions = 4
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(sessions)
        listener.settimeout(5.0)

        def serve():
            for _ in range(sessions):
                conn, _ = listener.accept()
                with conn:
                    conn.settimeout(5.0)
                    conn.recv(4096)   # the open frame
                    conn.sendall(answer)

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        try:
            # One worker: if the first bad answer kills it, the other
            # three sessions are never driven.
            report = run_load(*listener.getsockname(), "any query",
                              sessions=sessions, concurrency=1,
                              timeout_ms=5000.0, correlate=False)
        finally:
            server.join(10.0)
            listener.close()
        assert not server.is_alive()
        assert [o.error for o in report.outcomes] \
            == ["protocol"] * sessions
        assert report.failed == sessions and report.completed == 0
