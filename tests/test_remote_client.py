"""Tests for the remote-client fragment channel (Section 5 outlook)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffer import BufferComponent, LXPProtocolError, \
    validate_fill_reply
from repro.client import (
    NavigableLXPServer,
    RPCDocument,
    connect_remote,
    open_virtual_document,
)
from repro.mediator import MIXMediator
from repro.navigation import MaterializedDocument, materialize
from repro.wrappers import XMLFileWrapper
from repro.xtree import Tree, elem, leaf

from .fixtures import entries, expected_fig4_answer, hole

HOMES_XML = ("<homes>"
             "<home><addr>La Jolla</addr><zip>91220</zip></home>"
             "<home><addr>El Cajon</addr><zip>91223</zip></home>"
             "</homes>")
SCHOOLS_XML = ("<schools>"
               "<school><dir>Smith</dir><zip>91220</zip></school>"
               "<school><dir>Bar</dir><zip>91220</zip></school>"
               "<school><dir>Hart</dir><zip>91223</zip></school>"
               "</schools>")
QUERY = """
CONSTRUCT <answer><med_home> $H $S {$S} </med_home> {$H}</answer> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1
  AND schoolsSrc schools.school $S AND $S zip._ $V2 AND $V1 = $V2
"""


def _mediator():
    med = MIXMediator()
    med.register_wrapper("homesSrc",
                         XMLFileWrapper("homesSrc", HOMES_XML))
    med.register_wrapper("schoolsSrc",
                         XMLFileWrapper("schoolsSrc", SCHOOLS_XML))
    return med


class TestNavigableLXPServer:
    def test_exports_materialized_document(self):
        tree = elem("r", elem("a", "1"), elem("b", elem("c", "2")))
        server = NavigableLXPServer(MaterializedDocument(tree),
                                    chunk_size=1, depth=1)
        buffer = BufferComponent(server)
        assert materialize(buffer) == tree

    def test_replies_validate(self):
        tree = Tree("r", [elem("x", str(i)) for i in range(7)])
        server = NavigableLXPServer(MaterializedDocument(tree),
                                    chunk_size=2, depth=2)
        reply = server.fill(("root",))
        validate_fill_reply(reply)

    def test_chunking_leaves_sibling_holes(self):
        tree = Tree("r", [elem("x", str(i)) for i in range(7)])
        server = NavigableLXPServer(MaterializedDocument(tree),
                                    chunk_size=3, depth=2)
        (root,) = entries(server.fill(("root",)))
        assert isinstance(root[-1], hole)

    def test_bad_parameters(self):
        doc = MaterializedDocument(elem("r"))
        with pytest.raises(ValueError):
            NavigableLXPServer(doc, chunk_size=0)
        with pytest.raises(ValueError):
            NavigableLXPServer(doc, depth=0)

    def test_unknown_hole(self):
        server = NavigableLXPServer(MaterializedDocument(elem("r")))
        with pytest.raises(LXPProtocolError):
            server.fill(("bogus", 1))

    def test_exports_virtual_document(self):
        med = _mediator()
        result = med.prepare(QUERY)
        server = NavigableLXPServer(result.document, chunk_size=4,
                                    depth=2)
        buffer = BufferComponent(server)
        assert materialize(buffer) == expected_fig4_answer()


class TestRemoteSession:
    def test_remote_client_sees_the_answer(self):
        med = _mediator()
        root, stats = connect_remote(med.prepare(QUERY).document)
        assert root.to_tree() == expected_fig4_answer()
        assert stats.messages > 0
        assert stats.bytes_transferred > 0

    def test_remote_is_lazy_end_to_end(self):
        """A partial browse must not evaluate the whole query."""
        med = _mediator()
        root, stats = connect_remote(med.prepare(QUERY).document,
                                     chunk_size=1, depth=1)
        root.first_child().tag
        partial_navs = med.total_source_navigations()
        root.to_tree()
        assert partial_navs < med.total_source_navigations()

    def test_fragment_channel_beats_rpc_on_messages(self):
        med = _mediator()
        root, frag_stats = connect_remote(med.prepare(QUERY).document,
                                          chunk_size=5, depth=3)
        root.to_tree()

        med2 = _mediator()
        rpc = RPCDocument(med2.prepare(QUERY).document)
        rpc_root = open_virtual_document(rpc)
        assert rpc_root.to_tree() == root.to_tree()
        assert frag_stats.messages * 3 < rpc.stats.messages

    def test_deeper_chunks_cut_round_trips(self):
        def messages(chunk, depth):
            med = _mediator()
            root, stats = connect_remote(med.prepare(QUERY).document,
                                         chunk_size=chunk, depth=depth)
            root.to_tree()
            return stats.messages

        assert messages(10, 4) < messages(1, 1)


_trees = st.recursive(
    st.sampled_from(list("xyz123")).map(leaf),
    lambda kids: st.builds(
        Tree, st.sampled_from(["r", "s"]), st.lists(kids, max_size=3)),
    max_leaves=12,
)


@settings(max_examples=80, deadline=None)
@given(tree=_trees, chunk=st.integers(1, 4), depth=st.integers(1, 3))
def test_remote_buffer_reconstructs_any_document(tree, chunk, depth):
    """Property: the remote stack is transparent for any document and
    any granularity."""
    root, _ = connect_remote(MaterializedDocument(tree),
                             chunk_size=chunk, depth=depth)
    assert root.to_tree() == tree
