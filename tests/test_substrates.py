"""Unit tests for the OODB and web-store substrates."""

import pytest

from repro.oodb import ObjectStore, OODBError
from repro.webstore import (
    HttpSimulator,
    WebError,
    WebSite,
    make_catalog_site,
)
from repro.xtree import elem


@pytest.fixture
def university():
    store = ObjectStore("uni")
    store.define_class("Dept", ["name"])
    store.define_class("Emp", ["name", "dept", "skills", "manager"])
    cs = store.create("Dept", name="CS")
    math = store.create("Dept", name="Math")
    ann = store.create("Emp", name="Ann", dept=cs, skills=["db", "ir"])
    store.create("Emp", name="Bob", dept=cs, manager=ann)
    store.create("Emp", name="Cyd", dept=math)
    return store


class TestObjectStore:
    def test_extents_in_creation_order(self, university):
        names = [o.get("name") for o in university.extent("Emp")]
        assert names == ["Ann", "Bob", "Cyd"]

    def test_oids_unique_and_resolvable(self, university):
        oids = [o.oid for o in university.extent("Emp")]
        assert len(set(oids)) == 3
        assert university.get(oids[0]).get("name") == "Ann"

    def test_unknown_class(self, university):
        with pytest.raises(OODBError):
            university.extent("Nope")

    def test_unknown_oid(self, university):
        with pytest.raises(OODBError):
            university.get("uni:ghost1")

    def test_duplicate_class_rejected(self, university):
        with pytest.raises(OODBError):
            university.define_class("Dept", ["x"])

    def test_unknown_attribute_rejected(self, university):
        with pytest.raises(OODBError):
            university.create("Dept", nope="x")

    def test_attribute_access_validated(self, university):
        ann = university.extent("Emp")[0]
        with pytest.raises(OODBError):
            ann.get("salary")

    def test_follow_reference_path(self, university):
        ann = university.extent("Emp")[0]
        assert university.follow(ann, "dept.name") == ["CS"]

    def test_follow_fans_out_lists(self, university):
        ann = university.extent("Emp")[0]
        assert university.follow(ann, "skills") == ["db", "ir"]

    def test_follow_skips_missing(self, university):
        cyd = university.extent("Emp")[2]
        assert university.follow(cyd, "manager.name") == []

    def test_follow_through_atom_rejected(self, university):
        ann = university.extent("Emp")[0]
        with pytest.raises(OODBError):
            university.follow(ann, "name.more")


class TestWebStore:
    def test_pages_and_404(self):
        site = WebSite("s")
        site.add_page("/a", elem("page", "hello"))
        assert site.page("/a").text() == "hello"
        with pytest.raises(WebError):
            site.page("/b")

    def test_catalog_pagination(self):
        items = [elem("item", str(i)) for i in range(45)]
        site = make_catalog_site("shop", items, page_size=20)
        assert len(site) == 3
        first = site.page("/page/0")
        assert len(first.children) == 21  # 20 items + next link
        assert first.children[-1].label == "next"
        last = site.page("/page/2")
        assert len(last.children) == 5  # remainder, no next link
        assert all(c.label == "item" for c in last.children)

    def test_single_page_catalog(self):
        site = make_catalog_site("shop", [elem("item", "0")],
                                 page_size=10)
        assert len(site) == 1
        assert site.page("/page/0").find_child("next") is None

    def test_empty_catalog_still_has_front_page(self):
        site = make_catalog_site("shop", [], page_size=10)
        assert site.page("/page/0").is_leaf

    def test_page_size_validated(self):
        with pytest.raises(ValueError):
            make_catalog_site("shop", [], page_size=0)

    def test_http_simulator_charges(self):
        items = [elem("item", "x" * 100) for _ in range(10)]
        site = make_catalog_site("shop", items, page_size=5)
        http = HttpSimulator(site, latency_ms=50.0, ms_per_kb=10.0)
        http.fetch("/page/0")
        assert http.stats.requests == 1
        assert http.stats.bytes_transferred > 500
        assert http.stats.virtual_ms > 50.0
        http.fetch("/page/1")
        assert http.stats.requests == 2
