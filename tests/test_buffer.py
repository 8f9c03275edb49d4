"""Tests for open trees, LXP, and the generic buffer component
(paper Section 4, Definitions 3-4, Example 7, Figure 8)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    multiple,
    rule,
    run_state_machine_as_test,
)

from repro.buffer import (
    AdaptiveTreeLXPServer,
    BufferComponent,
    Fragments,
    LXPProtocolError,
    LXPServer,
    RandomizedLXPServer,
    TreeLXPServer,
    fragment_of_tree,
    reply_holes,
    validate_fill_reply,
)
from repro.navigation import materialize
from repro.xtree import Tree, elem, leaf, tree_size

from .fixtures import entries, hole, reply


class TestFillReplyValidation:
    def test_empty_reply_is_legal(self):
        validate_fill_reply(reply())

    def test_elements_only(self):
        validate_fill_reply(reply("a", "b"))

    def test_trailing_hole(self):
        validate_fill_reply(reply("a", hole(1)))

    def test_leading_hole(self):
        validate_fill_reply(reply(hole(1), "a"))

    def test_only_holes_rejected(self):
        with pytest.raises(LXPProtocolError):
            validate_fill_reply(reply(hole(1)))

    def test_adjacent_holes_rejected(self):
        with pytest.raises(LXPProtocolError):
            validate_fill_reply(reply("a", hole(1), hole(2)))

    def test_nested_adjacent_holes_rejected(self):
        bad = reply(("a", "b", hole(1), hole(2)))
        with pytest.raises(LXPProtocolError):
            validate_fill_reply(bad)

    def test_single_child_hole_is_legal(self):
        validate_fill_reply(reply(("a", hole(1))))

    def test_fragment_of_tree_is_closed(self):
        frag = fragment_of_tree(elem("a", elem("b", "c")))
        assert frag == reply(("a", ("b", "c")))


EXAMPLE7_TREE = elem("a", elem("b", "d", "e"), elem("c"))


class TestTreeLXPServer:
    def test_root_hole(self):
        server = TreeLXPServer(EXAMPLE7_TREE)
        assert server.get_root() == Fragments.hole(("root",))

    def test_full_depth_ships_everything(self):
        server = TreeLXPServer(EXAMPLE7_TREE, chunk_size=100)
        shipped = server.fill(("root",))
        assert shipped == fragment_of_tree(EXAMPLE7_TREE)
        assert server.stats.fills == 1

    def test_depth_one_leaves_child_holes(self):
        server = TreeLXPServer(EXAMPLE7_TREE, depth=1)
        (root,) = entries(server.fill(("root",)))
        assert root[0] == "a"
        assert isinstance(root[1], hole)

    def test_chunking_leaves_trailing_hole(self):
        tree = Tree("r", [leaf(str(i)) for i in range(7)])
        server = TreeLXPServer(tree, chunk_size=3, depth=2)
        (root,) = entries(server.fill(("root",)))
        labels = list(root[1:-1])
        assert labels == ["0", "1", "2"]
        rest = root[-1]
        reply2 = entries(server.fill(rest.hole_id))
        assert list(reply2[:-1]) == ["3", "4", "5"]

    def test_replies_always_validate(self):
        tree = Tree("r", [elem("x", str(i)) for i in range(20)])
        server = TreeLXPServer(tree, chunk_size=4, depth=1)
        stack = [server.get_root().hole_id]
        while stack:
            shipped = server.fill(stack.pop())
            validate_fill_reply(shipped)
            queue = list(entries(shipped))
            while queue:
                f = queue.pop()
                if isinstance(f, hole):
                    stack.append(f.hole_id)
                elif isinstance(f, tuple):
                    queue.extend(f[1:])

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            TreeLXPServer(EXAMPLE7_TREE, chunk_size=0)
        with pytest.raises(ValueError):
            TreeLXPServer(EXAMPLE7_TREE, depth=0)

    def test_unknown_hole(self):
        server = TreeLXPServer(EXAMPLE7_TREE)
        with pytest.raises(LXPProtocolError):
            server.fill("garbage")


class TestBufferComponent:
    def test_exposes_the_source_tree(self):
        buffer = BufferComponent(TreeLXPServer(EXAMPLE7_TREE, depth=1))
        assert materialize(buffer) == EXAMPLE7_TREE

    def test_fetch_never_fills(self):
        buffer = BufferComponent(TreeLXPServer(EXAMPLE7_TREE, depth=1))
        root = buffer.root()
        fills = buffer.stats.fills
        buffer.fetch(root)
        assert buffer.stats.fills == fills

    def test_down_on_leaf(self):
        buffer = BufferComponent(TreeLXPServer(EXAMPLE7_TREE, depth=1))
        b = buffer.down(buffer.root())
        d = buffer.down(b)
        assert buffer.fetch(d) == "d"
        assert buffer.down(d) is None

    def test_root_has_no_sibling(self):
        buffer = BufferComponent(TreeLXPServer(EXAMPLE7_TREE))
        assert buffer.right(buffer.root()) is None

    def test_hit_rate_improves_with_chunking(self):
        tree = Tree("r", [elem("x", str(i)) for i in range(50)])

        def rate(chunk):
            buffer = BufferComponent(
                TreeLXPServer(tree, chunk_size=chunk, depth=3))
            materialize(buffer)
            return buffer.stats.hit_rate

        assert rate(25) > rate(1)

    def test_pointers_stay_valid_across_splices(self):
        tree = Tree("r", [elem("x", str(i)) for i in range(10)])
        buffer = BufferComponent(TreeLXPServer(tree, chunk_size=2,
                                               depth=2))
        first = buffer.down(buffer.root())
        # Walk to the end, splicing several times.
        node = first
        while buffer.right(node) is not None:
            node = buffer.right(node)
        # The old pointer still navigates correctly.
        assert buffer.fetch(first) == "x"
        assert buffer.fetch(buffer.down(first)) == "0"

    def test_holes_outstanding_decreases(self):
        tree = Tree("r", [elem("x", str(i)) for i in range(10)])
        buffer = BufferComponent(TreeLXPServer(tree, chunk_size=2,
                                               depth=3))
        materialize(buffer)
        assert buffer.holes_outstanding() == 0

    def test_empty_root_reply_raises(self):
        class EmptyServer(TreeLXPServer):
            def fill(self, hole_id):
                return reply()

        buffer = BufferComponent(EmptyServer(EXAMPLE7_TREE))
        with pytest.raises(LXPProtocolError):
            buffer.root()


class _CountingList(list):
    """A node table that counts the entries read from it."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


def _count_table_reads(buffer):
    """Swap ``buffer``'s node tables for counting ones; returns a
    reading of the entries read from them so far."""
    tables = []
    for name in ("_label", "_first", "_next", "_prev", "_parent"):
        table = _CountingList(getattr(buffer, name))
        setattr(buffer, name, table)
        tables.append(table)
    return lambda: sum(table.reads for table in tables)


class _ScriptedServer(LXPServer):
    """Answers each fill from a ``{hole_id: reply}`` script."""

    def __init__(self, script):
        self.script = script

    def get_root(self):
        return Fragments.hole(("root",))

    def fill(self, hole_id):
        return self.script[hole_id]


class TestPositionHint:
    """A pointer is a node number and ``right`` reads the ``next``
    table: a splice to a node's left relinks the hole's neighbours and
    moves no node, so there is no position to find again."""

    @pytest.mark.parametrize("labels", [
        ["x", "y", "z"],    # the hole becomes k > 1 fragments
        ["x"],              # ... exactly one
        [],                 # ... none: a dead end
    ])
    def test_hint_survives_a_splice_to_the_left(self, labels):
        buffer = BufferComponent(_ScriptedServer({
            ("root",): reply(("r", "a", hole("h"), "b", "c")),
            "h": reply(*labels)}))
        root = buffer.root()
        a = buffer.down(root)
        # A walk splices a hole before it passes it, so the pointers
        # right of the hole are taken from the table.
        (open_hole,) = buffer._hole_ids
        b = buffer._next[open_hole]
        c = buffer.right(b)
        buffer._splice(open_hole, buffer.server.fill("h"))
        assert (buffer.fetch(b), buffer.fetch(c)) == ("b", "c")
        assert buffer.right(b) == c and buffer.right(c) is None
        walked, node = [], a
        while node is not None:
            walked.append(buffer.fetch(node))
            node = buffer.right(node)
        assert walked == ["a"] + labels + ["b", "c"]
        assert buffer.holes_outstanding() == 0

    def test_stale_hint_out_of_range(self):
        """Node numbers are not positions: children a later fill
        grafts are numbered past the nodes to their right, and their
        own links end their sibling list."""
        buffer = BufferComponent(TreeLXPServer(
            Tree("r", [elem("x", "1", "2"), elem("y", "3")]), depth=2))
        x = buffer.down(buffer.root())
        y = buffer.right(x)
        one = buffer.down(x)
        two = buffer.right(one)
        assert y < one < two
        assert buffer.fetch(two) == "2" and buffer.right(two) is None
        assert buffer.right(y) is None

    def test_sibling_walk_is_linear(self):
        """A ``right`` walk over n siblings reads each step's links in
        O(1) -- counted in reads of the node tables, not timed.  (A
        search of the sibling list per step would be n^2/2 = 200
        million.)"""
        n = 20000
        buffer = BufferComponent.prefilled(
            fragment_of_tree(Tree("r", [leaf("x")] * n)))
        root = buffer.root()
        reads = _count_table_reads(buffer)
        node, steps = buffer.down(root), 0
        while node is not None:
            node = buffer.right(node)
            steps += 1
        assert steps == n
        assert reads() <= 3 * n


class TestExample7Trace:
    """The liberal trace of Example 7, replayed literally."""

    def test_liberal_fill_sequence(self):
        # A scripted server answering exactly as in the paper.
        script = {
            ("root",): reply(("a", hole(1))),
            1: reply(("b", hole(2)), hole(3)),
            3: reply("c"),
            2: reply(hole(4), ("d", hole(5)), hole(6)),
            4: reply(),
            5: reply(),
            6: reply("e"),
        }
        buffer = BufferComponent(_ScriptedServer(script))
        assert materialize(buffer) == elem("a", elem("b", "d", "e"),
                                           elem("c"))


class TestPrefetching:
    def test_prefetch_reduces_demand_fills(self):
        tree = Tree("r", [elem("x", str(i)) for i in range(60)])

        def demand_fills(lookahead):
            buffer = BufferComponent(
                TreeLXPServer(tree, chunk_size=5, depth=3),
                lookahead=lookahead)
            materialize(buffer)
            return buffer.prefetch_stats.demand_fills

        assert demand_fills(4) < demand_fills(0)

    def test_invalid_parameters_rejected(self):
        server = TreeLXPServer(Tree("r", [leaf("x")]), chunk_size=2)
        with pytest.raises(ValueError):
            BufferComponent(server, lookahead=-1)
        with pytest.raises(ValueError):
            BufferComponent(server, lookahead=-1, batch=True)

    def test_zero_lookahead_is_plain_buffer(self):
        tree = Tree("r", [elem("x", str(i)) for i in range(10)])
        buffer = BufferComponent(
            TreeLXPServer(tree, chunk_size=5, depth=3), lookahead=0)
        materialize(buffer)
        assert buffer.prefetch_stats.prefetch_fills == 0


    @pytest.mark.parametrize("lookahead", [1, 2, 3, 5])
    @pytest.mark.parametrize("chunks", [1, 7, 12])
    def test_budget_rule_on_a_chunk_chain(self, chunks, lookahead):
        """The model's budget: one demand fill buys ``lookahead``
        prefetch fills, and only the next demand fill buys more."""
        chunk = 3
        tree = Tree("r", [leaf(str(i)) for i in range(chunks * chunk)])
        buffer = BufferComponent(
            TreeLXPServer(tree, chunk_size=chunk), lookahead=lookahead)
        assert materialize(buffer) == tree
        stats = buffer.prefetch_stats
        assert buffer.stats.fills == chunks
        assert stats.demand_fills == -(-chunks // (lookahead + 1))
        assert stats.prefetch_fills == chunks - stats.demand_fills

    def test_e5_table(self):
        """Experiment E5's table (benchmarks/test_bench_lxp_policies):
        browsing the first 20 hits of a paginated listing."""
        from repro.bench import book_catalog, browse_first_k
        from repro.mediator import MIXMediator
        from repro.webstore import HttpSimulator, make_catalog_site
        from repro.wrappers import WebLXPWrapper

        site = make_catalog_site(
            "amazon", book_catalog("amazon", 1500, seed=3), page_size=25)
        table = []
        for lookahead in (0, 1, 2, 4):
            http = HttpSimulator(site, latency_ms=80.0, ms_per_kb=5.0)
            buffer = BufferComponent(WebLXPWrapper(http),
                                     lookahead=lookahead)
            mediator = MIXMediator()
            mediator.register_source("amazon", buffer)
            root = mediator.query(
                "CONSTRUCT <hits> $B {$B} </hits> {} "
                "WHERE amazon book $B AND $B price._ $P AND $P < 12")
            browse_first_k(root, 20, per_result=lambda b: b.to_tree())
            stats = buffer.prefetch_stats
            table.append((lookahead, stats.demand_fills,
                          stats.prefetch_fills, http.stats.requests))
        assert table == [(0, 19, 0, 19), (1, 10, 10, 20),
                         (2, 7, 14, 21), (4, 4, 16, 20)]


class TestSchedulingPoint:
    """Look-ahead is scheduled where the set of holes changes -- when
    a fill lands -- never per navigation: counted in reads of the node
    tables, not timed.  (A walk of the open tree per navigation made
    both scans below quadratic.)"""

    #: 31 chunks, so under a look-ahead of 2 the last fill of a scan
    #: is a demand fill and the model ends with budget to spare
    ROWS, CHUNK = 310, 10

    def _tree(self):
        return Tree("t", [elem("row", elem("a", "1"), elem("b", "2"))
                          for _ in range(self.ROWS)])

    def _buffer(self, policy):
        """A buffer, and a reading of its table reads so far."""
        buffer = BufferComponent(
            TreeLXPServer(self._tree(), chunk_size=self.CHUNK),
            **policy)
        return buffer, _count_table_reads(buffer)

    @pytest.mark.parametrize("batch", [0, 1])
    def test_rewalk_of_a_loaded_buffer_reads_what_the_plain_one_does(
            self, batch):
        reads = {}
        for name, policy in [
                ("plain", {}), ("ahead", {"lookahead": 2, "batch": batch})]:
            buffer, counted = self._buffer(policy)
            materialize(buffer)
            assert buffer.holes_outstanding() == 0
            loaded = counted()
            assert materialize(buffer) == self._tree()
            reads[name] = counted() - loaded
        assert reads["ahead"] == reads["plain"]

    @pytest.mark.parametrize("batch", [0, 1])
    def test_first_scan_bookkeeping_is_linear(self, batch):
        nodes = 1 + 5 * self.ROWS
        reads = []
        for policy in [{}, {"lookahead": 2, "batch": batch}]:
            buffer, counted = self._buffer(policy)
            assert materialize(buffer) == self._tree()
            reads.append(counted())
        plain, ahead = reads
        # each spliced node is read once more, to index its holes
        assert plain <= ahead <= plain + 2 * nodes


# ----------------------------------------------------------------------
# Property: the buffer over ANY liberal server is indistinguishable
# from direct navigation of the complete tree -- under every fill
# policy.
# ----------------------------------------------------------------------

POLICIES = [
    {},
    {"lookahead": 1},
    {"lookahead": 3},
    {"batch": True},
    {"lookahead": 4, "batch": True},
]

SERVERS = [
    lambda tree, seed: RandomizedLXPServer(tree, seed=seed),
    lambda tree, seed: TreeLXPServer(tree, chunk_size=1 + seed % 3,
                                     depth=1 + seed % 4),
    lambda tree, seed: AdaptiveTreeLXPServer(
        tree, initial_chunk=1 + seed % 2, max_chunk=4,
        depth=1 + seed % 3),
]


def assert_fills_reconcile(buffer, server):
    """Every fill is accounted exactly once, whatever the policy."""
    if buffer.batch:
        batch = buffer.batch_stats
        assert batch.batches + batch.speculative_fills \
            + batch.dropped_replies == server.stats.fills
        assert batch.batches + batch.speculative_fills \
            == buffer.stats.fills
    else:
        prefetch = buffer.prefetch_stats
        assert prefetch.demand_fills + prefetch.prefetch_fills \
            == buffer.stats.fills
        assert buffer.batch_stats.commands == 0

_trees = st.recursive(
    st.sampled_from(list("pqxyz12")).map(leaf),
    lambda kids: st.builds(
        Tree, st.sampled_from(["r", "s", "t"]),
        st.lists(kids, max_size=4)),
    max_leaves=14,
)


@settings(max_examples=120, deadline=None)
@given(tree=_trees, seed=st.integers(0, 10000),
       make_server=st.sampled_from(SERVERS),
       policy=st.sampled_from(POLICIES))
def test_buffer_over_randomized_liberal_server(tree, seed, make_server,
                                               policy):
    server = make_server(tree, seed)
    buffer = BufferComponent(server, **policy)
    assert materialize(buffer) == tree
    assert buffer.holes_outstanding() == 0
    assert_fills_reconcile(buffer, server)


@settings(max_examples=60, deadline=None)
@given(tree=_trees, chunk=st.integers(1, 5), depth=st.integers(1, 4))
def test_buffer_over_chunked_server(tree, chunk, depth):
    buffer = BufferComponent(
        TreeLXPServer(tree, chunk_size=chunk, depth=depth))
    assert materialize(buffer) == tree
    assert buffer.holes_outstanding() == 0


@settings(max_examples=80, deadline=None)
@given(tree=_trees, seed=st.integers(0, 5000),
       make_server=st.sampled_from(SERVERS),
       policy=st.sampled_from(POLICIES), data=st.data())
def test_partial_navigation_matches_materialized(tree, seed,
                                                 make_server, policy,
                                                 data):
    """Any partial navigation over the buffer equals the same
    navigation over the in-memory tree -- not just full exploration."""
    from repro.navigation import MaterializedDocument, Navigation, \
        run_navigation
    commands = data.draw(st.lists(
        st.sampled_from(["d", "r", "f"]), max_size=15))
    nav = Navigation.parse(";".join(commands))

    reference = run_navigation(MaterializedDocument(tree), nav)
    server = make_server(tree, seed)
    buffered_doc = BufferComponent(server, **policy)
    actual = run_navigation(buffered_doc, nav)

    assert actual.labels == reference.labels
    assert [p is None for p in actual.pointers] == \
        [p is None for p in reference.pointers]
    assert_fills_reconcile(buffered_doc, server)


class _DeadEndServer(RandomizedLXPServer):
    """A liberal server that also ends some replies with a dead end: a
    hole that stands for no element."""

    dead_ends = 0

    def fill(self, hole_id):
        if hole_id[0] == "dead end":
            return reply()
        shipped = super().fill(hole_id)
        if shipped.labels and not isinstance(entries(shipped)[-1], hole) \
                and self.rng.random() < 0.3:
            self.dead_ends += 1
            shipped = Fragments(
                shipped.labels + (None,), shipped.sizes + (1,),
                shipped.holes + (("dead end", self.dead_ends),))
        return shipped


class BufferModel(RuleBasedStateMachine):
    """The buffer against the tree it exposes, materialized: ``root``,
    ``down``, ``right`` and ``fetch`` from any pointer handed out so
    far, over a liberal server's replies.

    The model names a node by its path.  Pointers and paths correspond
    one to one, so a pointer that named another node after a splice to
    its left shows up as soon as either node is reached again.
    ``stats.navigations`` counts one per ``down``/``right``/``fetch``
    and one for the first ``root``."""

    pointers = Bundle("pointers")

    def __init__(self, policy):
        super().__init__()
        self.policy = policy
        self.buffer = None

    @initialize(tree=_trees, seed=st.integers(0, 10000))
    def open(self, tree, seed):
        self.tree = tree
        self.buffer = BufferComponent(_DeadEndServer(tree, seed=seed),
                                      **self.policy)
        self.path_of, self.pointer_at = {}, {}
        self.navigations = 0
        self.rooted = False

    def _node(self, path):
        node = self.tree
        for index in path:
            node = node.children[index]
        return node

    def _hand_out(self, pointer, path):
        """``pointer`` is the buffer's answer where the model says
        ``path`` (None: there is no such node)."""
        if path is None:
            assert pointer is None
            return multiple()
        assert self.path_of.setdefault(pointer, path) == path
        assert self.pointer_at.setdefault(path, pointer) == pointer
        return pointer

    @rule(target=pointers)
    def root(self):
        pointer = self.buffer.root()
        self.navigations += not self.rooted
        self.rooted = True
        return self._hand_out(pointer, ())

    @rule(target=pointers, pointer=pointers)
    def down(self, pointer):
        path = self.path_of[pointer]
        self.navigations += 1
        child = path + (0,) if self._node(path).children else None
        return self._hand_out(self.buffer.down(pointer), child)

    @rule(target=pointers, pointer=pointers)
    def right(self, pointer):
        path = self.path_of[pointer]
        self.navigations += 1
        sibling = None
        if path and path[-1] + 1 < len(self._node(path[:-1]).children):
            sibling = path[:-1] + (path[-1] + 1,)
        return self._hand_out(self.buffer.right(pointer), sibling)

    @rule(pointer=pointers)
    def fetch(self, pointer):
        self.navigations += 1
        assert self.buffer.fetch(pointer) \
            == self._node(self.path_of[pointer]).label

    @rule()
    def walk_everything(self):
        # one fetch and one down per node, one right per non-root node
        self.navigations += 3 * tree_size(self.tree) - 1 \
            + (not self.rooted)
        self.rooted = True
        assert materialize(self.buffer) == self.tree
        assert self.buffer.holes_outstanding() == 0

    @invariant()
    def navigations_are_counted(self):
        if self.buffer is not None:
            assert self.buffer.stats.navigations == self.navigations


@pytest.mark.parametrize("policy", POLICIES,
                         ids=lambda policy: repr(policy))
def test_buffer_state_machine(policy):
    run_state_machine_as_test(
        lambda: BufferModel(policy),
        settings=settings(max_examples=40, stateful_step_count=30,
                          deadline=None))


class TestAdaptiveGranularity:
    def _tree(self, n=200):
        return Tree("r", [elem("x", str(i)) for i in range(n)])

    def test_exposes_the_tree(self):
        from repro.buffer import AdaptiveTreeLXPServer
        tree = self._tree(50)
        buffer = BufferComponent(
            AdaptiveTreeLXPServer(tree, initial_chunk=2, max_chunk=16))
        assert materialize(buffer) == tree

    def test_chunk_grows_along_a_scan(self):
        from repro.buffer import AdaptiveTreeLXPServer
        server = AdaptiveTreeLXPServer(self._tree(), initial_chunk=2,
                                       max_chunk=64, depth=2)
        (root,) = entries(server.fill(("root",)))
        rest = root[-1]
        assert isinstance(rest, hole)
        sizes = []
        while isinstance(rest, hole):
            shipped = entries(server.fill(rest.hole_id))
            elems = [f for f in shipped if not isinstance(f, hole)]
            sizes.append(len(elems))
            rest = shipped[-1]
        # Doubling run capped at max_chunk.
        assert sizes[0] == 2 and sizes[1] == 4 and sizes[2] == 8
        assert max(sizes) <= 64
        assert sizes[-2] == 64  # reached the cap

    def test_fewer_fills_than_fixed_small_chunks(self):
        from repro.buffer import AdaptiveTreeLXPServer
        tree = self._tree(200)
        adaptive = BufferComponent(
            AdaptiveTreeLXPServer(tree, initial_chunk=2, max_chunk=64,
                                  depth=2))
        materialize(adaptive)
        fixed = BufferComponent(TreeLXPServer(tree, chunk_size=2,
                                              depth=2))
        materialize(fixed)
        assert adaptive.stats.fills < fixed.stats.fills / 3

    def test_peek_stays_cheap(self):
        from repro.buffer import AdaptiveTreeLXPServer
        server = AdaptiveTreeLXPServer(self._tree(200),
                                       initial_chunk=2, max_chunk=64,
                                       depth=2)
        buffer = BufferComponent(server)
        buffer.fetch(buffer.down(buffer.root()))  # peek at one child
        # Only the root fill (2 elements) happened: no overshipping.
        assert server.stats.elements_shipped <= 6

    def test_bad_parameters(self):
        from repro.buffer import AdaptiveTreeLXPServer
        with pytest.raises(ValueError):
            AdaptiveTreeLXPServer(self._tree(5), initial_chunk=8,
                                  max_chunk=4)


# ----------------------------------------------------------------------
# Batched LXP: fill_batch protocol and the batching buffer
# ----------------------------------------------------------------------

class TestFillBatchProtocol:
    def _server(self, n=10, chunk=2, depth=1):
        tree = Tree("r", [elem("x", str(i)) for i in range(n)])
        return TreeLXPServer(tree, chunk_size=chunk, depth=depth)

    def test_requested_ids_first_in_request_order(self):
        server = self._server()
        root_id = server.get_root().hole_id
        replies = server.fill_batch([root_id])
        assert [hid for hid, _ in replies] == [root_id]
        validate_fill_reply(replies[0][1])

    def test_speculation_follows_reply_frontier(self):
        server = self._server()
        root_id = server.get_root().hole_id
        replies = server.fill_batch([root_id], speculate=2)
        ids = [hid for hid, _ in replies]
        assert ids[0] == root_id and len(ids) == 3
        # Every speculative id was introduced by an earlier reply in
        # this same batch, in document (frontier) order.
        introduced = []
        for _, fragments in replies:
            introduced.extend(reply_holes(fragments))
        assert ids[1:] == introduced[:2]

    def test_speculation_never_reanswers(self):
        server = self._server(n=20, chunk=2)
        root_id = server.get_root().hole_id
        replies = server.fill_batch([root_id], speculate=50)
        ids = [hid for hid, _ in replies]
        assert len(ids) == len(set(ids))

    def test_zero_speculation_answers_exactly_the_request(self):
        server = self._server()
        root_id = server.get_root().hole_id
        assert len(server.fill_batch([root_id], speculate=0)) == 1

    def test_negative_speculation_rejected(self):
        server = self._server()
        with pytest.raises(LXPProtocolError):
            server.fill_batch([server.get_root().hole_id], speculate=-1)

    def test_each_answered_hole_counts_as_one_command(self):
        server = self._server()
        root_id = server.get_root().hole_id
        before = server.stats.fills
        replies = server.fill_batch([root_id], speculate=3)
        assert server.stats.fills - before == len(replies)

    def test_reply_holes_document_order(self):
        fragments = reply(("a", hole("h1"), ("b", hole("h2"))), hole("h3"))
        assert reply_holes(fragments) == ("h1", "h2", "h3")


class TestBatchingBuffer:
    def _tree(self, n=12):
        return Tree("r", [elem("x", str(i)) for i in range(n)])

    def test_materializes_identically_to_plain_buffer(self):
        tree = self._tree()
        plain = materialize(BufferComponent(
            TreeLXPServer(tree, chunk_size=2, depth=1)))
        batched = materialize(BufferComponent(
            TreeLXPServer(tree, chunk_size=2, depth=1),
            lookahead=4, batch=True))
        assert batched == plain

    def test_speculative_fills_reduce_batches(self):
        tree = self._tree(20)

        def batches(speculate):
            buffer = BufferComponent(
                TreeLXPServer(tree, chunk_size=2, depth=1),
                lookahead=speculate, batch=True)
            materialize(buffer)
            return buffer.batch_stats.batches

        assert batches(4) < batches(0)

    def test_commands_equal_batches_plus_speculation(self):
        buffer = BufferComponent(
            TreeLXPServer(self._tree(), chunk_size=2, depth=1),
            lookahead=3, batch=True)
        materialize(buffer)
        stats = buffer.batch_stats
        assert stats.commands \
            == stats.batches + stats.speculative_fills
        assert stats.commands == buffer.stats.fills \
            + stats.dropped_replies

    def test_omitted_demand_reply_is_protocol_error(self):
        class RudeServer(TreeLXPServer):
            def fill_batch(self, hole_ids, speculate=0):
                return []  # never answers what was asked

        buffer = BufferComponent(RudeServer(self._tree(), chunk_size=2),
                                 batch=True)
        with pytest.raises(LXPProtocolError, match="omitted"):
            buffer.root()

    def test_stale_speculative_replies_are_dropped(self):
        class EchoTwiceServer(TreeLXPServer):
            """Answers the demand, then 'speculates' the same hole
            again -- the duplicate must be dropped, not spliced."""

            def fill_batch(self, hole_ids, speculate=0):
                replies = [(hid, self.fill(hid)) for hid in hole_ids]
                return replies + [(hole_ids[0],
                                   self.fill(hole_ids[0]))]

        tree = self._tree()
        buffer = BufferComponent(EchoTwiceServer(tree, chunk_size=2,
                                                 depth=1), batch=True)
        plain = materialize(BufferComponent(
            TreeLXPServer(tree, chunk_size=2, depth=1)))
        assert materialize(buffer) == plain
        assert buffer.batch_stats.dropped_replies > 0
