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
import sys
import threading

import pytest

from repro import EngineConfig, MIXMediator
from repro.mediator.mix import PREPARED_PLANS, MediatorError
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
    mediator = MIXMediator(EngineConfig())
    for name, tree in homes_and_schools(5).items():
        mediator.register_source(name, MaterializedDocument(tree))
    reports = []
    for _ in range(2):
        result = mediator.prepare(HOMES_SCHOOLS_QUERY)
        root, _channel = result.connect_remote(chunk_size=2, depth=2)
        root.to_tree()
        reports.append((result.stats(),
                        result.context.metrics_snapshot()))
    names = []
    for report, metrics in reports:
        (name, channel), = report["channels"]["per_channel"].items()
        series = metrics["channel_round_trips_total"]["series"]
        assert series["channel=" + name] == channel["messages"] == 34
        names.append(name)
    assert names == ["remote#1", "remote#2"]


# -- prepared plans: shared by query text, read only ---------------------

def test_one_text_prepared_on_two_threads_shares_its_plan(solo):
    """Two sessions of one query text share the plans and nothing
    else: each gets its own context, caches and lazy operators, and
    navigating both leaves the shared plan as it was."""
    mediator = _mediator()
    results = [None, None]
    start = threading.Barrier(2)

    def prepare(index):
        start.wait(timeout=30)
        results[index] = mediator.prepare(HOMES_SCHOOLS_QUERY)

    threads = [threading.Thread(target=prepare, args=(index,))
               for index in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    first, second = results
    assert first.plan is second.plan
    assert first.initial_plan is second.initial_plan
    assert first.optimization_trace is second.optimization_trace
    assert first.context is not second.context
    assert first.context.caches is not second.context.caches
    assert first.document is not second.document
    pretty = first.plan.pretty()
    applied = list(first.optimization_trace.applied)
    eager = to_xml(mediator.query_eager(HOMES_SCHOOLS_QUERY))
    for result in results:
        assert to_xml(result.root.to_tree()) == eager == solo[0]
        assert _navigations(result) == solo[1]
    assert first.plan.pretty() == pretty
    assert list(first.optimization_trace.applied) == applied
    assert mediator.prepare(HOMES_SCHOOLS_QUERY).plan is first.plan


def test_a_failed_prepare_is_not_kept():
    mediator = MIXMediator(EngineConfig())
    trees = homes_and_schools(3, seed=1)
    mediator.register_source("homesSrc",
                             MaterializedDocument(trees["homesSrc"]))
    with pytest.raises(MediatorError, match="schoolsSrc"):
        mediator.prepare(HOMES_SCHOOLS_QUERY)
    mediator.register_source("schoolsSrc",
                             MaterializedDocument(trees["schoolsSrc"]))
    result = mediator.prepare(HOMES_SCHOOLS_QUERY)
    assert to_xml(result.materialize()) \
        == to_xml(mediator.query_eager(HOMES_SCHOOLS_QUERY))


def _distinct_texts(count):
    return ["CONSTRUCT <r%d> $H {$H} </r%d> {} "
            "WHERE homesSrc homes.home $H" % (index, index)
            for index in range(count)]


def test_the_table_stays_at_its_cap():
    """A peer sending ever new texts cannot grow the mediator: the
    oldest text is dropped first."""
    mediator = _mediator()
    texts = _distinct_texts(PREPARED_PLANS + 5)
    plans = [mediator.prepare(text).plan for text in texts]
    assert len(mediator._prepared) == PREPARED_PLANS
    assert mediator.prepare(texts[-1]).plan is plans[-1]
    assert mediator.prepare(texts[0]).plan is not plans[0]


def test_a_repeated_prepare_emits_the_same_events():
    mediator = _mediator()
    runs = []
    for _ in range(2):
        events = []
        with mediator.tracer.subscribed(events.append):
            mediator.prepare(HOMES_SCHOOLS_QUERY)
        runs.append([str(event) for event in events
                     if event.layer == "mediator"])
    assert runs[0] == runs[1]
    assert [line.split()[0] for line in runs[0]] == [
        "mediator.prepare.begin", "mediator.optimize",
        "mediator.prepare.end"]


def test_many_threads_keep_the_table_at_its_cap():
    """More threads than cores racing on the table, with a short
    switch interval: the table never holds more than its cap, and
    the texts still in it are answered from it."""
    mediator = _mediator()
    texts = _distinct_texts(PREPARED_PLANS + 8)
    failures = []
    start = threading.Barrier(8)

    def prepare(offset):
        try:
            start.wait(timeout=30)
            for _ in range(3):
                for index in range(len(texts)):
                    mediator.prepare(texts[(index + offset) % len(texts)])
                    with mediator._catalog_lock:  # the table's guard
                        assert len(mediator._prepared) <= PREPARED_PLANS
        except Exception as error:  # reported below
            failures.append(error)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=prepare, args=(offset,))
                   for offset in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert len(mediator._prepared) == PREPARED_PLANS
    kept = [mediator.prepare(text).plan for text in texts[-4:]]
    assert all(mediator.prepare(text).plan is plan
               for text, plan in zip(texts[-4:], kept))
