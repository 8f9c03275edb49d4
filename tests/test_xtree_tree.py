"""Unit tests for the labeled-ordered-tree data model."""

import pytest

from repro.xtree import (
    Tree,
    TreeConstructionError,
    elem,
    leaf,
    preorder,
    tree_size,
)


class TestConstruction:
    def test_leaf_has_no_children(self):
        node = leaf("91220")
        assert node.is_leaf
        assert node.label == "91220"
        assert node.first_child() is None

    def test_numeric_atoms_are_stringified(self):
        assert leaf(91220).label == "91220"
        assert leaf(3.5).label == "3.5"
        assert leaf(4.0).label == "4"

    def test_elem_wraps_string_children(self):
        node = elem("zip", "91220")
        assert len(node) == 1
        assert node.child(0).label == "91220"

    def test_nested_construction(self):
        home = elem("home", elem("addr", "La Jolla"), elem("zip", 91220))
        assert home.sexpr() == "home[addr[La Jolla], zip[91220]]"

    def test_label_must_be_string(self):
        with pytest.raises(TreeConstructionError):
            Tree(None)

    def test_child_must_be_tree_or_atom(self):
        with pytest.raises(TreeConstructionError):
            Tree("a", [object()])

    def test_children_are_immutable_tuple(self):
        node = elem("a", "x", "y")
        assert isinstance(node.children, tuple)


class TestEquality:
    def test_structural_equality(self):
        a = elem("home", elem("zip", "91220"))
        b = elem("home", elem("zip", "91220"))
        assert a == b
        assert a is not b

    def test_inequality_on_label(self):
        assert elem("a", "x") != elem("b", "x")

    def test_inequality_on_arity(self):
        assert elem("a", "x") != elem("a", "x", "y")

    def test_inequality_on_child_order(self):
        assert elem("a", "x", "y") != elem("a", "y", "x")

    def test_equal_trees_hash_equal(self):
        a = elem("home", elem("zip", "91220"))
        b = elem("home", elem("zip", "91220"))
        assert hash(a) == hash(b)

    def test_identity_distinct_from_equality(self):
        a = elem("a", "x")
        b = elem("a", "x")
        assert a == b and a is not b

    def test_deep_trees_compare_without_recursion_error(self):
        deep_a = leaf("x")
        deep_b = leaf("x")
        for _ in range(5000):
            deep_a = Tree("n", [deep_a])
            deep_b = Tree("n", [deep_b])
        assert deep_a == deep_b


class TestQueries:
    def setup_method(self):
        self.home = elem(
            "home", elem("addr", "La Jolla"), elem("zip", "91220"),
            elem("zip", "91221"),
        )

    def test_find_children(self):
        zips = self.home.find_children("zip")
        assert [z.text() for z in zips] == ["91220", "91221"]

    def test_find_child_first_match(self):
        assert self.home.find_child("zip").text() == "91220"

    def test_find_child_missing(self):
        assert self.home.find_child("bath") is None

    def test_text_concatenates_leaves(self):
        assert self.home.text() == "La Jolla9122091221"

    def test_text_of_leaf_is_label(self):
        assert leaf("hello").text() == "hello"

    def test_descendants_in_document_order(self):
        labels = [d.label for d in self.home.descendants()]
        assert labels == ["addr", "La Jolla", "zip", "91220", "zip", "91221"]


class TestMeasuresAndTraversal:
    def test_tree_size(self):
        assert tree_size(leaf("x")) == 1
        assert tree_size(elem("a", "x", elem("b", "y"))) == 4

    def test_preorder_is_document_order(self):
        t = elem("a", elem("b", "1"), elem("c", "2"))
        assert [n.label for n in preorder(t)] == ["a", "b", "1", "c", "2"]


class TestConversion:
    def test_deep_copy_is_equal_but_disjoint(self):
        t = elem("a", elem("b", "1"))
        copy = t.deep_copy()
        assert copy == t
        assert copy is not t
        assert copy.child(0) is not t.child(0)

    def test_sexpr_max_depth_elides(self):
        t = elem("a", elem("b", elem("c", "d")))
        assert t.sexpr(max_depth=1) == "a[b[...]]"
