"""E13 -- batched navigation.

The channel-cost model of Section 5 charges per round trip, so the
dependent chain "fill chunk n, learn the hole for chunk n+1, ask
again" is the dominant cost of a forward scan over a chunked remote
source.  E13 measures LXP pipelining (``batch_navigations``): one
request carries a batch of fill commands and the server speculatively
resolves the frontier holes its own replies introduce -- round trips
collapse while the command count (the paper's navigation cost) is
unchanged.

Expected shape: batching cuts round trips by roughly the speculation
depth (>= 2x required below).
"""

from repro.bench import HOMES_SCHOOLS_QUERY, format_table, \
    homes_and_schools
from repro.mediator import MIXMediator
from repro.navigation import MaterializedDocument
from repro.runtime import EngineConfig

N_HOMES = 30
CHUNK, DEPTH = 2, 2


def _remote_scan(config):
    med = MIXMediator(config)
    for url, tree in homes_and_schools(N_HOMES).items():
        med.register_source(url, MaterializedDocument(tree))
    result = med.prepare(HOMES_SCHOOLS_QUERY)
    root, stats = result.connect_remote(chunk_size=CHUNK, depth=DEPTH)
    answer = root.to_tree()
    return answer, stats


def test_batching_cuts_round_trips(write_result):
    rows = []
    record = {}
    answers = {}

    configs = [
        ("plain", EngineConfig()),
        ("batched", EngineConfig(batch_navigations=True)),
        ("batched+spec4", EngineConfig(batch_navigations=True,
                                       prefetch=4)),
        ("batched+spec8", EngineConfig(batch_navigations=True,
                                       prefetch=8)),
    ]
    for name, config in configs:
        answer, stats = _remote_scan(config)
        answers[name] = answer
        rows.append([name, stats.messages, stats.commands,
                     stats.bytes_transferred,
                     round(stats.virtual_ms)])
        record[name] = {"messages": stats.messages,
                        "commands": stats.commands,
                        "bytes": stats.bytes_transferred,
                        "virtual_ms": round(stats.virtual_ms, 3)}

    table = format_table(
        ["channel (full forward scan)", "round trips", "commands",
         "bytes", "virtual ms"], rows)
    write_result("E13_batched_navigation", table, record)

    # Identical answers under every configuration.
    assert len(set(repr(a) for a in answers.values())) == 1
    # Pipelining never uses more round trips than commands...
    for row in record.values():
        assert row["messages"] <= row["commands"]
    # ...the command count (navigation cost) is configuration-invariant...
    assert len(set(row["commands"] for row in record.values())) == 1
    # ...and speculation achieves the required >= 2x round-trip cut.
    assert record["batched+spec4"]["messages"] * 2 \
        <= record["plain"]["messages"]
    assert record["batched+spec8"]["messages"] \
        <= record["batched+spec4"]["messages"]
