"""E14 -- observability overhead: off vs record vs full export.

The observability layer threads span hooks through every seam of the
tower -- client, lazy operators, buffer, channel, source meters.  Its
contract is *pay-for-use*: with no subscribers and no recording (the
defaults), every hook short-circuits on one attribute check, so the
engine must navigate byte-identically to the un-instrumented build
and run within noise of itself.  Metric series cost nothing while the
query runs: they are read from the counters the layers keep anyway,
when scraped.

E14 measures the E13 remote forward-scan workload in three modes:

* **off** -- defaults: idle tracer, operators unwrapped.  Run twice (interleaved) so the off/off ratio exposes
  the measurement noise floor; the acceptance band below is set from
  that floor.
* **record** -- recording tracer + fake clock, ``observe_operators``:
  every span/event is built and kept.
* **export** -- record, plus dumping the trace as JSONL *and* Chrome
  ``trace_event`` and scraping the query's metric series as
  Prometheus text (to in-memory sinks, so disk speed is not part of
  the measurement).

Asserted invariants: the navigation behavior (channel commands,
round trips, per-source navigation counts, answer) is identical in
every mode -- observation must never change what it observes -- and
the off-path runs within the noise band of its own re-run.
"""

import io
import time

from repro.bench import HOMES_SCHOOLS_QUERY, format_table, \
    homes_and_schools
from repro.mediator import MIXMediator
from repro.navigation import MaterializedDocument
from repro.runtime import (
    EngineConfig,
    Tracer,
    export_chrome_trace,
    export_jsonl,
)
from repro.testing import FakeClock

N_HOMES = 30
CHUNK, DEPTH = 2, 2
ROUNDS = 5


def _scan(config, tracer=None):
    """The E13 workload: a full remote forward scan of the
    homes/schools join view."""
    med = MIXMediator(config, tracer=tracer)
    for url, tree in homes_and_schools(N_HOMES).items():
        med.register_source(url, MaterializedDocument(tree))
    result = med.prepare(HOMES_SCHOOLS_QUERY)
    root, stats = result.connect_remote(chunk_size=CHUNK, depth=DEPTH)
    answer = root.to_tree()
    return med, result, answer, stats


def _timed(fn):
    """Median wall-clock of ROUNDS runs (median, not min: the
    comparison is mode-to-mode on the same machine)."""
    samples = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    samples.sort()
    return samples[len(samples) // 2]


def _fingerprint(med, _result, answer, stats):
    return {
        "commands": stats.commands,
        "round_trips": stats.messages,
        "bytes": stats.bytes_transferred,
        "source_navigations": {
            name: meter.total for name, meter in med.meters.items()},
        "answer": repr(answer),
    }


def test_observability_overhead(write_result):
    modes = {}
    fingerprints = {}

    def run_off():
        fingerprints["off"] = _fingerprint(*_scan(EngineConfig()))

    def run_record():
        tracer = Tracer(record=True, clock=FakeClock())
        fingerprints["record"] = _fingerprint(*_scan(
            EngineConfig(observe_operators=True), tracer=tracer))
        fingerprints["record"]["events"] = len(tracer.events)

    def run_export():
        tracer = Tracer(record=True, clock=FakeClock())
        scan = _scan(EngineConfig(observe_operators=True),
                     tracer=tracer)
        export_jsonl(tracer.events, io.StringIO())
        export_chrome_trace(tracer.events, io.StringIO())
        io.StringIO().write(scan[1].context.metrics_prometheus())
        fingerprints["export"] = _fingerprint(*scan)

    # Interleave-ish: warm everything once, then time each mode.
    run_off(), run_record(), run_export()
    modes["off"] = _timed(run_off)
    modes["off_again"] = _timed(run_off)
    modes["record"] = _timed(run_record)
    modes["export"] = _timed(run_export)

    base = modes["off"]
    rows = [[name, "%.4f" % seconds, "%.2fx" % (seconds / base)]
            for name, seconds in modes.items()]
    table = format_table(
        ["mode (E13 remote scan, %d homes)" % N_HOMES,
         "median s", "vs off"], rows)
    record = {name: {"seconds": round(seconds, 6),
                     "ratio_vs_off": round(seconds / base, 4)}
              for name, seconds in modes.items()}
    record["events_recorded"] = fingerprints["record"].pop("events")
    write_result("E14_observability_overhead", table, record)

    # Observation never changes what it observes: identical channel
    # commands, round trips, bytes, per-source counts, and answer.
    assert fingerprints["off"] == fingerprints["record"] \
        == fingerprints["export"]

    # The off path is the off path: re-running the default
    # configuration lands within the noise band (generous: CI boxes
    # jitter; the point is there is no structural overhead).
    off_ratio = modes["off_again"] / modes["off"]
    assert 0.4 <= off_ratio <= 2.5, (
        "off-path re-run ratio %.2f outside noise band" % off_ratio)

    # Recording costs something, but not absurdly (sanity bound, not
    # a performance target).
    assert modes["export"] / base < 250.0
