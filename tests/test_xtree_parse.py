"""Unit tests for the XML parser and serializer."""

import pytest

from repro.xtree import (
    XMLParseError,
    elem,
    parse_xml,
    to_xml,
)


class TestBasicParsing:
    def test_single_empty_element(self):
        assert parse_xml("<a/>").sexpr() == "a"

    def test_empty_element_with_close_tag(self):
        assert parse_xml("<a></a>").sexpr() == "a"

    def test_text_content(self):
        assert parse_xml("<zip>91220</zip>").sexpr() == "zip[91220]"

    def test_nested_elements(self):
        doc = parse_xml("<home><addr>La Jolla</addr><zip>91220</zip></home>")
        assert doc.sexpr() == "home[addr[La Jolla], zip[91220]]"

    def test_sibling_order_preserved(self):
        doc = parse_xml("<r><b/><a/><c/></r>")
        assert [c.label for c in doc.children] == ["b", "a", "c"]

    def test_mixed_content(self):
        doc = parse_xml("<p>hello <b>world</b> bye</p>")
        assert [c.label for c in doc.children] == ["hello", "b", "bye"]

    def test_whitespace_only_text_dropped_by_default(self):
        doc = parse_xml("<r>\n  <a/>\n  <b/>\n</r>")
        assert [c.label for c in doc.children] == ["a", "b"]

    def test_keep_whitespace(self):
        doc = parse_xml("<r> <a/> </r>", keep_whitespace=True)
        assert [c.label for c in doc.children] == [" ", "a", " "]


class TestAttributes:
    def test_attributes_become_leading_children(self):
        doc = parse_xml('<home zip="91220" beds="3"><addr/></home>')
        assert [c.label for c in doc.children] == ["@zip", "@beds", "addr"]
        assert doc.find_child("@zip").text() == "91220"

    def test_attributes_discarded_when_disabled(self):
        doc = parse_xml('<home zip="91220"/>', keep_attributes=False)
        assert doc.is_leaf

    def test_single_quoted_attribute(self):
        doc = parse_xml("<a x='1'/>")
        assert doc.find_child("@x").text() == "1"

    def test_empty_attribute_value(self):
        doc = parse_xml('<a x=""/>')
        assert doc.find_child("@x").is_leaf


class TestEntitiesAndSections:
    def test_predefined_entities(self):
        doc = parse_xml("<a>&lt;&gt;&amp;&quot;&apos;</a>")
        assert doc.child(0).label == "<>&\"'"

    def test_character_references(self):
        doc = parse_xml("<a>&#65;&#x42;</a>")
        assert doc.child(0).label == "AB"

    def test_unknown_entity_raises(self):
        with pytest.raises(XMLParseError):
            parse_xml("<a>&nosuch;</a>")

    def test_cdata_is_literal(self):
        doc = parse_xml("<a><![CDATA[<not&parsed>]]></a>")
        assert doc.child(0).label == "<not&parsed>"

    def test_comments_skipped(self):
        doc = parse_xml("<!-- head --><a><!-- inner --><b/></a>")
        assert doc.sexpr() == "a[b]"

    def test_xml_declaration_and_doctype_skipped(self):
        doc = parse_xml('<?xml version="1.0"?><!DOCTYPE a><a/>')
        assert doc.sexpr() == "a"


class TestErrors:
    @pytest.mark.parametrize("bad", [
        "",
        "no markup",
        "<a>",
        "<a></b>",
        "<a><b></a></b>",
        "<a/><b/>",
        "<a x=1/>",
        "<a><!-- unterminated</a>",
    ])
    def test_malformed_documents_raise(self, bad):
        with pytest.raises(XMLParseError):
            parse_xml(bad)

    def test_error_carries_position(self):
        with pytest.raises(XMLParseError) as err:
            parse_xml("<a></b>")
        assert err.value.position is not None


class TestSerialization:
    def test_leaf_content(self):
        assert to_xml(parse_xml("<zip>91220</zip>")) == "<zip>91220</zip>"

    def test_empty_element_self_closes(self):
        assert to_xml(parse_xml("<a></a>")) == "<a/>"

    def test_attributes_round_trip(self):
        xml = '<home beds="3"><addr>12 Main St</addr></home>'
        assert to_xml(parse_xml(xml)) == xml

    def test_name_like_text_round_trips_at_tree_level(self):
        # A name-like text leaf is indistinguishable from an empty
        # element in the T = D | D[T*] model (the paper makes the same
        # identification), so only tree-level round-trip is guaranteed.
        xml = "<addr>X</addr>"
        tree = parse_xml(xml)
        assert parse_xml(to_xml(tree)) == tree

    def test_escaping_in_text(self):
        tree = elem("a", "x<y&z")
        assert to_xml(tree) == "<a>x&lt;y&amp;z</a>"
        assert parse_xml(to_xml(tree)) == tree

    def test_escaping_in_attribute(self):
        tree = parse_xml('<a x="&quot;q&quot;"/>')
        assert parse_xml(to_xml(tree)) == tree

    def test_round_trip_nested(self):
        xml = ("<homes><home><addr>La Jolla</addr><zip>91220</zip></home>"
               "<home><zip>91223</zip></home></homes>")
        assert to_xml(parse_xml(xml)) == xml

    def test_pretty_print_contains_indentation(self):
        doc = parse_xml("<r><a><b>1</b></a></r>")
        pretty = to_xml(doc, pretty=True)
        assert "\n  <a>" in pretty
        assert parse_xml(pretty) == doc
