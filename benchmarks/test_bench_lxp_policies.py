"""E5 -- Example 7 / Figure 8: liberal LXP policies and prefetching.

Paper artifacts: the liberal fill trace of Example 7; the claim that
the generic buffer's chase algorithms work for "the most liberal LXP
protocol, in which the wrapper can return holes at arbitrary
positions"; and the prefetching extension ("the wrapper can prefetch
data from the source and fill in previously left open holes").

Reproduction: (a) replay Example 7's exact trace; (b) drive the buffer
over strict-chunked and randomized-liberal servers on the same
document and check indistinguishability plus the fill-count spread;
(c) measure how prefetch lookahead trades demand stalls for total page
requests on a paginated web source.
"""

import pytest

from repro.bench import book_catalog, browse_first_k, format_table
from repro.buffer import (
    BufferComponent,
    Fragments,
    RandomizedLXPServer,
    TreeLXPServer,
)
from repro.mediator import MIXMediator
from repro.navigation import materialize
from repro.server.wire import decode_fragments
from repro.webstore import HttpSimulator, make_catalog_site
from repro.wrappers import WebLXPWrapper
from repro.xtree import Tree, elem


def test_example7_trace_replays():
    """The paper's liberal trace, verbatim."""
    # Each reply in the wire codec's array shape: ["e", label,
    # [children]] an element, ["h", id] a hole.
    script = {hole_id: decode_fragments(shape) for hole_id, shape in {
        ("root",): [["e", "a", [["h", 1]]]],
        1: [["e", "b", [["h", 2]]], ["h", 3]],
        3: [["e", "c", []]],
        2: [["h", 4], ["e", "d", [["h", 5]]], ["h", 6]],
        4: [],
        5: [],
        6: [["e", "e", []]],
    }.items()}
    fills = []

    class Scripted:
        def get_root(self):
            return Fragments.hole(("root",))

        def fill(self, hole_id):
            fills.append(hole_id)
            return script[hole_id]

    buffer = BufferComponent(Scripted())
    assert materialize(buffer) == elem("a", elem("b", "d", "e"),
                                       elem("c"))
    assert set(fills) == set(script)  # every hole eventually filled


def test_liberal_vs_strict_policies(write_result):
    tree = Tree("r", [elem("x", str(i), str(i + 1000))
                      for i in range(60)])
    rows = []
    for name, server in [
        ("strict chunk=5 depth=1", TreeLXPServer(tree, chunk_size=5,
                                                 depth=1)),
        ("strict chunk=20 depth=3", TreeLXPServer(tree, chunk_size=20,
                                                  depth=3)),
        ("whole tree per fill", TreeLXPServer(tree, chunk_size=100)),
        ("liberal randomized s=1", RandomizedLXPServer(tree, seed=1)),
        ("liberal randomized s=2", RandomizedLXPServer(tree, seed=2)),
    ]:
        buffer = BufferComponent(server)
        assert materialize(buffer) == tree  # indistinguishable
        rows.append([name, buffer.stats.fills,
                     server.stats.elements_shipped,
                     server.stats.holes_shipped])
    table = format_table(
        ["policy", "fill requests", "elements shipped",
         "holes shipped"], rows)
    write_result("E5_lxp_policies", table)


def _browse_web(lookahead, n_books=1500, page_size=25, k=20):
    books = book_catalog("amazon", n_books, seed=3)
    site = make_catalog_site("amazon", books, page_size=page_size)
    http = HttpSimulator(site, latency_ms=80.0, ms_per_kb=5.0)
    buffer = BufferComponent(WebLXPWrapper(http),
                             lookahead=lookahead)
    med = MIXMediator()
    med.register_source("amazon", buffer)
    root = med.query(
        "CONSTRUCT <hits> $B {$B} </hits> {} "
        "WHERE amazon book $B AND $B price._ $P AND $P < 12")
    browse_first_k(root, k, per_result=lambda b: b.to_tree())
    return buffer.prefetch_stats, http.stats


def test_prefetch_trades_stalls_for_requests(write_result):
    rows = []
    stalls = {}
    requests = {}
    for lookahead in (0, 1, 2, 4):
        prefetch_stats, http_stats = _browse_web(lookahead)
        stalls[lookahead] = prefetch_stats.demand_fills
        requests[lookahead] = http_stats.requests
        rows.append([lookahead, prefetch_stats.demand_fills,
                     prefetch_stats.prefetch_fills,
                     http_stats.requests,
                     round(http_stats.virtual_ms)])
    table = format_table(
        ["lookahead", "demand fills (stalls)", "prefetch fills",
         "page requests", "virtual ms"], rows)
    write_result("E5_prefetch", table)

    assert stalls[2] < stalls[0]
    # Bounded lookahead keeps request inflation modest.
    assert requests[2] <= requests[0] + 4


def test_bench_buffer_over_liberal_server(benchmark):
    tree = Tree("r", [elem("x", str(i)) for i in range(40)])

    def run():
        buffer = BufferComponent(RandomizedLXPServer(tree, seed=5))
        return materialize(buffer)

    assert benchmark(run) == tree
