"""Regression: concurrent fills into one exported query.

``connect_remote`` with a pooled look-ahead has the client thread and
the pool workers fill the same exported answer at once.  The query's
operators keep scan state (a groupBy's position, join caches) and take
no lock of their own -- one query is driven by one thread at a time --
so every fill reaches the exported query through the client's one
:class:`~repro.server.client.SocketChannel`, whose ``client.channel``
lock is held across each round trip, the session's answer included.
Without that serialization, two workers raced one groupBy scan and
about one run in ten shipped a wrong answer.
"""

import sys

import pytest

from repro import EngineConfig, MIXMediator
from repro.bench import homes_and_schools
from repro.navigation import MaterializedDocument
from repro.xtree import to_xml

#: groupBy under a nested construct: the exported fills walk one
#: shared group scan from several threads
GROUPED_QUERY = (
    "CONSTRUCT <result> <home> $A {$A} </home> {$H} </result> {} "
    "WHERE homesSrc homes.home $H AND $H addr._ $A")

RUNS = 60


@pytest.fixture
def tiny_switch_interval():
    """Switch threads as often as the interpreter allows, so any
    interleaving the pool can produce shows up in a few runs."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


def _remote_answer(seed):
    mediator = MIXMediator(EngineConfig(prefetch=4, prefetch_workers=4))
    for name, tree in homes_and_schools(15, seed=seed).items():
        mediator.register_source(name, MaterializedDocument(tree))
    root, _channel = mediator.prepare(GROUPED_QUERY).connect_remote(
        chunk_size=1, depth=1)
    try:
        answer = to_xml(root.to_tree())
    finally:
        root._document.close()
    return answer, to_xml(mediator.query_eager(GROUPED_QUERY))


def test_pooled_exported_fills_match_the_eager_answer(
        tiny_switch_interval):
    wrong = []
    for seed in range(RUNS):
        answer, oracle = _remote_answer(seed)
        if answer != oracle:
            wrong.append(seed)
    assert wrong == []
