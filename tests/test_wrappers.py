"""Tests for the source wrappers (relational, web, OODB, XML file)."""

import pytest

from repro.buffer import (
    BufferComponent,
    Fragments,
    LXPProtocolError,
    validate_fill_reply,
)
from repro.navigation import CountingDocument, materialize
from repro.oodb import ObjectStore
from repro.relational import Connection, Database
from repro.webstore import HttpSimulator, make_catalog_site
from repro.wrappers import (
    OODBLXPWrapper,
    RelationalLXPWrapper,
    WebLXPWrapper,
    XMLFileWrapper,
    buffered,
    document_node,
)
from repro.xtree import Tree, elem

from .fixtures import entries, hole


@pytest.fixture
def homes_db():
    db = Database("homesdb")
    table = db.create_table("homes", [("addr", "str"), ("zip", "int")])
    table.insert_many([("A St", 91220), ("B St", 91221),
                       ("C St", 91222), ("D St", 91223),
                       ("E St", 91224)])
    return db


class TestRelationalWrapper:
    def test_paper_hole_id_scheme(self, homes_db):
        wrapper = RelationalLXPWrapper(Connection(homes_db),
                                       chunk_size=2)
        assert wrapper.get_root() == Fragments.hole("homesdb")
        (db_elem,) = entries(wrapper.fill("homesdb"))
        assert db_elem[0] == "homesdb"
        (table_elem,) = db_elem[1:]
        assert table_elem[0] == "homes"
        assert table_elem[1:] == (hole("homesdb.homes"),)

    def test_table_level_chunks(self, homes_db):
        wrapper = RelationalLXPWrapper(Connection(homesdb := homes_db),
                                       chunk_size=2)
        reply = entries(wrapper.fill("homesdb.homes"))
        assert [f[0] for f in reply[:-1]] == ["row1", "row2"]
        assert reply[-1] == hole("homesdb.homes.2")

    def test_row_level_continuation(self, homes_db):
        wrapper = RelationalLXPWrapper(Connection(homes_db),
                                       chunk_size=2)
        wrapper.fill("homesdb.homes")
        reply = entries(wrapper.fill("homesdb.homes.2"))
        assert [f[0] for f in reply[:-1]] == ["row3", "row4"]
        reply = entries(wrapper.fill("homesdb.homes.4"))
        assert [f[0] for f in reply] == ["row5"]  # no trailing hole

    def test_rows_ship_complete_tuples(self, homes_db):
        wrapper = RelationalLXPWrapper(Connection(homes_db),
                                       chunk_size=1)
        row = entries(wrapper.fill("homesdb.homes"))[0]
        assert [a[0] for a in row[1:]] == ["addr", "zip"]
        assert row[1][1] == "A St"

    def test_continuing_fill_reuses_cursor(self, homes_db):
        conn = Connection(homes_db)
        wrapper = RelationalLXPWrapper(conn, chunk_size=2)
        wrapper.fill("homesdb.homes")
        wrapper.fill("homesdb.homes.2")
        wrapper.fill("homesdb.homes.4")
        # One SELECT served all three forward fills.
        assert conn.statements_executed == 1

    def test_random_access_reopens_cursor(self, homes_db):
        conn = Connection(homes_db)
        wrapper = RelationalLXPWrapper(conn, chunk_size=2)
        wrapper.fill("homesdb.homes.4")
        wrapper.fill("homesdb.homes")
        assert conn.statements_executed == 2

    def test_full_view_through_buffer(self, homes_db):
        doc = buffered(RelationalLXPWrapper(Connection(homes_db),
                                            chunk_size=2))
        tree = materialize(doc)
        assert tree.label == "homesdb"
        rows = tree.child(0).children
        assert len(rows) == 5
        assert rows[4].find_child("addr").text() == "E St"

    def test_foreign_hole_rejected(self, homes_db):
        wrapper = RelationalLXPWrapper(Connection(homes_db))
        with pytest.raises(LXPProtocolError):
            wrapper.fill("otherdb.t")

    def test_replies_validate(self, homes_db):
        wrapper = RelationalLXPWrapper(Connection(homes_db),
                                       chunk_size=2)
        validate_fill_reply(wrapper.fill("homesdb"))
        validate_fill_reply(wrapper.fill("homesdb.homes"))


class TestWebWrapper:
    def _site(self, n=25, page_size=10):
        items = [elem("book", elem("title", "B%d" % i))
                 for i in range(n)]
        return HttpSimulator(make_catalog_site("amazon", items,
                                               page_size=page_size))

    def test_root_is_whole_listing(self):
        http = self._site()
        doc = buffered(WebLXPWrapper(http))
        tree = materialize(doc)
        assert tree.label == "amazon"
        assert len(tree.children) == 25
        assert http.stats.requests == 3

    def test_pages_fetched_on_demand(self):
        http = self._site()
        doc = buffered(WebLXPWrapper(http))
        node = doc.down(doc.root())
        for _ in range(9):
            node = doc.right(node)
        assert http.stats.requests == 1  # still inside page one
        doc.right(node)
        assert http.stats.requests == 2  # stepped onto page two

    def test_next_links_not_exported(self):
        http = self._site(n=15, page_size=10)
        tree = materialize(buffered(WebLXPWrapper(http)))
        assert all(c.label == "book" for c in tree.children)

    def test_replies_validate(self):
        http = self._site()
        wrapper = WebLXPWrapper(http)
        reply = wrapper.fill(wrapper.get_root().hole_id)
        validate_fill_reply(reply)

    def test_bad_hole_rejected(self):
        wrapper = WebLXPWrapper(self._site())
        with pytest.raises(LXPProtocolError):
            wrapper.fill(("nope", "x", False))


class TestOODBWrapper:
    def _store(self):
        store = ObjectStore("uni")
        store.define_class("Dept", ["name"])
        store.define_class("Emp", ["name", "dept", "skills"])
        cs = store.create("Dept", name="CS")
        store.create("Emp", name="Ann", dept=cs, skills=["db", "ir"])
        store.create("Emp", name="Bob", dept=cs)
        return store

    def test_export_shape(self):
        tree = materialize(buffered(OODBLXPWrapper(self._store())))
        assert tree.label == "uni"
        assert [c.label for c in tree.children] == ["Dept", "Emp"]
        ann = tree.child(1).child(0)
        assert ann.label == "object"
        assert ann.find_child("name").text() == "Ann"

    def test_references_become_ref_oids(self):
        tree = materialize(buffered(OODBLXPWrapper(self._store())))
        ann = tree.child(1).child(0)
        ref = ann.find_child("dept").child(0)
        assert ref.label == "ref"
        assert ref.text().startswith("uni:dept")

    def test_list_attributes_fan_out(self):
        tree = materialize(buffered(OODBLXPWrapper(self._store())))
        ann = tree.child(1).child(0)
        skills = ann.find_child("skills")
        assert [c.label for c in skills.children] == ["db", "ir"]

    def test_missing_attribute_is_empty_element(self):
        tree = materialize(buffered(OODBLXPWrapper(self._store())))
        bob = tree.child(1).child(1)
        assert bob.find_child("skills").is_leaf

    def test_extent_chunking(self):
        store = ObjectStore("big")
        store.define_class("Item", ["n"])
        for i in range(7):
            store.create("Item", n=str(i))
        wrapper = OODBLXPWrapper(store, chunk_size=3)
        reply = entries(wrapper.fill(("extent", "Item", 0)))
        assert len(reply) == 4  # 3 objects + hole
        assert reply[-1] == hole(("extent", "Item", 3))
        tree = materialize(buffered(OODBLXPWrapper(store,
                                                   chunk_size=3)))
        assert len(tree.child(0).children) == 7


class TestXMLFileWrapper:
    def test_parses_and_wraps_in_document_node(self):
        wrapper = XMLFileWrapper(
            "homesSrc", "<homes><home><zip>1</zip></home></homes>")
        tree = materialize(buffered(wrapper))
        assert tree.label == "homesSrc"
        assert tree.child(0).label == "homes"

    def test_accepts_parsed_tree(self):
        doc = elem("r", elem("a", "1"))
        tree = materialize(buffered(XMLFileWrapper("s", doc)))
        assert tree == document_node("s", doc)

    def test_buffered_counting_wires_a_meter(self):
        meter = CountingDocument(
            buffered(XMLFileWrapper("s", "<r><a>1</a></r>")), name="s")
        materialize(meter)
        assert meter.total > 0
        assert meter.name == "s"


class TestRelationalQueryWrapper:
    """Example 5 / Figure 6: the wrapper over a translated SQL query."""

    def _wrapper(self, homes_db, sql=None, chunk=2):
        from repro.wrappers import RelationalQueryWrapper
        sql = sql or "SELECT addr, zip FROM homes"
        return RelationalQueryWrapper(Connection(homes_db), sql,
                                      chunk_size=chunk)

    def test_figure6_shape(self, homes_db):
        tree = materialize(buffered(self._wrapper(homes_db)))
        assert tree.label == "view"
        assert all(t.label == "tuple" for t in tree.children)
        assert [a.label for a in tree.child(0).children] == ["addr",
                                                             "zip"]

    def test_query_result_not_base_table(self, homes_db):
        wrapper = self._wrapper(
            homes_db, "SELECT addr FROM homes WHERE zip = 91220")
        tree = materialize(buffered(wrapper))
        assert len(tree.children) == 1
        assert tree.child(0).find_child("addr").text() == "A St"

    def test_tuple_is_the_navigation_quantum(self, homes_db):
        """Example 5: after a tuple ships, attribute navigation never
        reaches the database."""
        conn = Connection(homes_db)
        from repro.wrappers import RelationalQueryWrapper
        wrapper = RelationalQueryWrapper(
            conn, "SELECT * FROM homes", chunk_size=1)
        doc = buffered(wrapper)
        first_tuple = doc.down(doc.root())
        statements = conn.statements_executed
        attr = doc.down(first_tuple)
        doc.fetch(attr)
        doc.fetch(doc.down(attr))
        doc.fetch(doc.right(attr))
        assert conn.statements_executed == statements

    def test_forward_fills_reuse_the_cursor(self, homes_db):
        conn = Connection(homes_db)
        from repro.wrappers import RelationalQueryWrapper
        wrapper = RelationalQueryWrapper(
            conn, "SELECT * FROM homes", chunk_size=2)
        materialize(buffered(wrapper))
        assert conn.statements_executed == 1

    def test_chunking_with_trailing_hole(self, homes_db):
        wrapper = self._wrapper(homes_db, chunk=2)
        (view,) = entries(wrapper.fill(("view",)))
        assert isinstance(view[-1], hole)
        more = entries(wrapper.fill(view[-1].hole_id))
        assert [f[0] for f in more if not isinstance(f, hole)]

    def test_order_by_query_is_served_in_order(self, homes_db):
        wrapper = self._wrapper(
            homes_db, "SELECT addr FROM homes ORDER BY addr DESC",
            chunk=10)
        tree = materialize(buffered(wrapper))
        addresses = [t.find_child("addr").text() for t in tree.children]
        assert addresses == sorted(addresses, reverse=True)

    def test_bad_hole_rejected(self, homes_db):
        with pytest.raises(LXPProtocolError):
            self._wrapper(homes_db).fill(("bogus",))
