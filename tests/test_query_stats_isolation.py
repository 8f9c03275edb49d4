"""Regression: a query's ``stats()`` counts its own source navigations.

Each query counts into its own execution context; the mediator's
``meters`` sum every query.  ``QueryResult.stats()`` used to read the
mediator-wide meters less a baseline taken at ``prepare()``, so two
queries navigated after both were prepared each reported the other's
navigations too (3 276 each instead of 1 638 on Figure 3 over
``homes_and_schools(10, seed=1)``).

The same holds for a query's remote channel and its metrics series:
every query's context used to name its first channel ``remote#1``, so
two queries on one mediator added into one series (70 round trips
where each query's own ``stats()`` read 35).
"""

import gc
import threading

import pytest

from repro import EngineConfig, MIXMediator
from repro.bench import HOMES_SCHOOLS_QUERY, homes_and_schools
from repro.navigation import MaterializedDocument
from repro.xtree import to_xml


def _mediator():
    mediator = MIXMediator(EngineConfig())
    for name, tree in homes_and_schools(10, seed=1).items():
        mediator.register_source(name, MaterializedDocument(tree))
    return mediator


def _walk(element):
    """``to_tree``'s navigation, one element per step: lets two walks
    interleave."""
    yield element.tag
    for child in element.children():
        yield from _walk(child)


def _navigations(result):
    return result.stats()["source_navigations"]


@pytest.fixture(scope="module")
def solo():
    mediator = _mediator()
    result = mediator.prepare(HOMES_SCHOOLS_QUERY)
    answer = to_xml(result.root.to_tree())
    assert _navigations(result)["total"] \
        == mediator.total_source_navigations()
    return answer, _navigations(result)


def test_solo_run_reads_the_figure_3_count(solo):
    _answer, navigations = solo
    assert navigations["total"] == 1638
    assert set(navigations["per_source"]) == {"homesSrc", "schoolsSrc"}


def test_two_queries_interleaved_in_one_thread(solo):
    mediator = _mediator()
    first = mediator.prepare(HOMES_SCHOOLS_QUERY)
    second = mediator.prepare(HOMES_SCHOOLS_QUERY)
    walks = [_walk(first.root), _walk(second.root)]
    while walks:
        for walk in list(walks):
            if next(walk, None) is None:
                walks.remove(walk)
    for result in (first, second):
        assert _navigations(result) == solo[1]
        assert to_xml(result.root.to_tree()) == solo[0]
    assert mediator.total_source_navigations() \
        == 2 * solo[1]["total"]


def test_two_queries_on_two_threads(solo):
    mediator = _mediator()
    results = [mediator.prepare(HOMES_SCHOOLS_QUERY) for _ in range(2)]
    answers = [None, None]
    start = threading.Barrier(2)

    def navigate(index):
        start.wait(timeout=30)
        answers[index] = to_xml(results[index].root.to_tree())

    threads = [threading.Thread(target=navigate, args=(index,))
               for index in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert answers == [solo[0], solo[0]]
    for result in results:
        assert _navigations(result) == solo[1]
    assert mediator.total_source_navigations() \
        == 2 * solo[1]["total"]


def test_meter_folds_collected_queries_and_stays_bounded(solo):
    """A long-lived mediator keeps no per-query counters for queries
    that are gone: their counts move into the meter's base."""
    mediator = _mediator()
    for _ in range(5):
        mediator.prepare(HOMES_SCHOOLS_QUERY).root.to_tree()
        gc.collect()
        # nobody reads the meters: preparing the next query folds
        for meter in mediator.meters.values():
            assert len(meter._live) <= 1
    assert mediator.total_source_navigations() == 5 * solo[1]["total"]
    mediator.reset_meters()
    assert mediator.total_source_navigations() == 0
    mediator.prepare(HOMES_SCHOOLS_QUERY).root.to_tree()
    assert mediator.total_source_navigations() == solo[1]["total"]


def test_each_remote_query_reads_its_own_metrics_series():
    mediator = MIXMediator(EngineConfig(metrics_enabled=True))
    for name, tree in homes_and_schools(5).items():
        mediator.register_source(name, MaterializedDocument(tree))
    reports = []
    for _ in range(2):
        result = mediator.prepare(HOMES_SCHOOLS_QUERY)
        root, _channel = result.connect_remote(chunk_size=2, depth=2)
        root.to_tree()
        reports.append(result.stats())
    names = []
    for report in reports:
        (name, channel), = report["channels"]["per_channel"].items()
        series = report["metrics"]["channel_round_trips_total"]["series"]
        assert series["channel=" + name] == channel["messages"] == 34
        names.append(name)
    assert names == ["remote#1", "remote#2"]
