"""The stats-report golden: every report surface, pinned whole.

One deterministic scenario -- the Fig. 4 view over two XML wrappers,
with ``fragment_cache`` and retries on, one in-process
``connect_remote`` session and one TCP session, all under a
:class:`~repro.testing.FakeClock` -- and the six reports an operator
can ask for, as sorted-key JSON in ``tests/golden/stats_report.json``:

* ``QueryResult.stats()``,
* the same query's ``context.metrics_snapshot()`` (the series read
  from its counters),
* the TCP client's ``context.stats_report()``,
* ``Session.stats()`` (the ``stats`` wire op),
* ``MediatorServer.status()["server"]`` and
* ``MediatorServer.prometheus_text()`` (both through the ``status``
  wire op, so every earlier request is already accounted).

The ``"config"`` section is left out: it is ``EngineConfig.as_dict()``
verbatim, pinned by the config tests, and would tie this golden to the
option count instead of to the counters it exists to watch.

Regenerate (only for an *intentional* report change) with
``REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_stats_golden.py``.
"""

import json
import os
import pathlib

from repro.mediator import MIXMediator
from repro.runtime import EngineConfig
from repro.runtime.fragcache import reset_shared_store
from repro.server import MediatorServer, connect
from repro.testing import FailureSchedule, FakeClock, FlakyLXPServer
from repro.wrappers import XMLFileWrapper
from repro.xtree import to_xml

from .fixtures import expected_fig4_answer
from .test_remote_client import HOMES_XML, QUERY, SCHOOLS_XML

GOLDEN = pathlib.Path(__file__).parent / "golden" / "stats_report.json"
REGEN = os.environ.get("REGEN_GOLDEN") == "1"

CONFIG = EngineConfig(fragment_cache=True, retry_max_attempts=3,
                      serve_port=0)


def _without_config(report):
    report = dict(report)
    del report["config"]
    return report


def _observed_reports():
    clock = FakeClock()
    mediator = MIXMediator(CONFIG, clock=clock)
    # The first homesSrc fill fails once: one retry on that seam.
    mediator.register_wrapper("homesSrc", FlakyLXPServer(
        XMLFileWrapper("homesSrc", HOMES_XML, chunk_size=1),
        FailureSchedule.first(1)))
    mediator.register_wrapper(
        "schoolsSrc", XMLFileWrapper("schoolsSrc", SCHOOLS_XML,
                                     chunk_size=1))
    reports = {}

    # In-process remote session first: the daemon below shares the
    # mediator's wrapper counters.
    result = mediator.prepare(QUERY)
    root, _ = result.connect_remote(chunk_size=1, depth=1)
    assert root.to_tree() == expected_fig4_answer()
    reports["query_result_stats"] = _without_config(result.stats())
    reports["query_metrics_snapshot"] = \
        result.context.metrics_snapshot()

    server = MediatorServer(mediator, clock=clock)
    host, port = server.start()
    try:
        with connect(host, port, QUERY, config=CONFIG, chunk_size=1,
                     depth=1, clock=clock) as session:
            assert to_xml(session.root.to_tree()) \
                == to_xml(expected_fig4_answer())
            reports["client_stats_report"] = _without_config(
                session.context.stats_report())
            reports["session_stats"] = \
                session.server_stats()["session"]
            status = session.channel.call(
                {"op": "status", "prometheus": True})["status"]
            reports["status_server"] = status["server"]
            reports["prometheus_text"] = status["prometheus"]
    finally:
        server.drain()
    return reports


def test_stats_reports_match_golden():
    reset_shared_store()
    try:
        observed = json.dumps(_observed_reports(), sort_keys=True,
                              indent=1) + "\n"
    finally:
        reset_shared_store()
    if REGEN:
        GOLDEN.write_text(observed)
    assert observed == GOLDEN.read_text()
