"""E18 -- deterministic trace sampling: off vs sampled vs full record.

PR 9 adds head-based sampling: ``trace_sample_rate`` hashes the trace
id (CRC-32 into 10k buckets) once, before any span is minted, and a
sampled-out tracer goes quiet for the whole trace.  The pitch is that
a production daemon can run with tracing *armed* at a 1% rate and pay
almost nothing: the sampled-out path costs one hash up front plus the
same one-attribute check per hook as the off path.

E18 measures the E13 remote forward-scan workload in three modes:

* **off** -- defaults: idle tracer, no trace id.
* **sampled** -- a recording tracer armed with a fresh trace id per
  scan and ``trace_sample_rate=0.01``: the honest hash verdict
  decides per scan whether anything records (at 1% nearly all scans
  go quiet).
* **record** -- a recording tracer at the default rate 1.0: every
  span and event is built and kept (the E14 "record" mode).

Asserted: the navigation fingerprint (channel commands, round trips,
bytes, per-source counts, answer) is identical in every mode --
sampling must never change what it observes -- and the sampled mode
runs within 3x of off (the ISSUE acceptance bound; in practice it
sits near 1x).
"""

import itertools
import time

from repro.bench import HOMES_SCHOOLS_QUERY, format_table, \
    homes_and_schools
from repro.mediator import MIXMediator
from repro.navigation import MaterializedDocument
from repro.runtime import EngineConfig, Tracer, sample_trace
from repro.testing import FakeClock

N_HOMES = 30
CHUNK, DEPTH = 2, 2
ROUNDS = 5
SAMPLE_RATE = 0.01

_trace_serial = itertools.count(1)


def _scan(config, tracer=None):
    """The E13 workload: a full remote forward scan of the
    homes/schools join view."""
    med = MIXMediator(config, tracer=tracer)
    for url, tree in homes_and_schools(N_HOMES).items():
        med.register_source(url, MaterializedDocument(tree))
    result = med.prepare(HOMES_SCHOOLS_QUERY)
    root, stats = result.connect_remote(chunk_size=CHUNK, depth=DEPTH)
    answer = root.to_tree()
    return med, answer, stats


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


def _fingerprint(med, answer, stats):
    return {
        "commands": stats.commands,
        "round_trips": stats.messages,
        "bytes": stats.bytes_transferred,
        "source_navigations": {
            name: meter.total for name, meter in med.meters.items()},
        "answer": repr(answer),
    }


def test_trace_sampling_overhead(write_result):
    modes = {}
    fingerprints = {}
    sampled_outcomes = {"kept": 0, "dropped": 0, "events": 0}

    def run_off():
        med, answer, stats = _scan(EngineConfig())
        fingerprints["off"] = _fingerprint(med, answer, stats)

    def run_sampled():
        # A fresh trace id per scan keeps the hash verdicts honest:
        # this is the production shape (one trace per request), not
        # a single lucky/unlucky id timed five times.
        trace_id = "e18-%d" % next(_trace_serial)
        tracer = Tracer(record=True, clock=FakeClock(),
                        trace_id=trace_id)
        med, answer, stats = _scan(
            EngineConfig(trace_sample_rate=SAMPLE_RATE),
            tracer=tracer)
        if sample_trace(trace_id, SAMPLE_RATE):
            sampled_outcomes["kept"] += 1
        else:
            sampled_outcomes["dropped"] += 1
        sampled_outcomes["events"] += len(tracer.events)
        fingerprints["sampled"] = _fingerprint(med, answer, stats)

    def run_record():
        tracer = Tracer(record=True, clock=FakeClock())
        med, answer, stats = _scan(EngineConfig(), tracer=tracer)
        fingerprints["record"] = _fingerprint(med, answer, stats)
        fingerprints["record"]["events"] = len(tracer.events)

    # Warm everything once, then time each mode.
    run_off(), run_sampled(), run_record()
    modes["off"] = _timed(run_off)
    modes["off_again"] = _timed(run_off)
    modes["sampled"] = _timed(run_sampled)
    modes["record"] = _timed(run_record)

    base = modes["off"]
    rows = [[name, "%.4f" % seconds, "%.2fx" % (seconds / base)]
            for name, seconds in modes.items()]
    table = format_table(
        ["mode (E13 remote scan, %d homes, rate %.2f)"
         % (N_HOMES, SAMPLE_RATE), "median s", "vs off"], rows)
    record = {name: {"seconds": round(seconds, 6),
                     "ratio_vs_off": round(seconds / base, 4)}
              for name, seconds in modes.items()}
    record["sample_rate"] = SAMPLE_RATE
    record["sampled_scans_kept"] = sampled_outcomes["kept"]
    record["sampled_scans_dropped"] = sampled_outcomes["dropped"]
    record["sampled_events_recorded"] = sampled_outcomes["events"]
    record["record_events"] = fingerprints["record"].pop("events")
    write_result("E18_trace_sampling", table, record)

    # Sampling never changes what it observes: identical channel
    # commands, round trips, bytes, per-source counts, and answer.
    assert fingerprints["off"] == fingerprints["sampled"] \
        == fingerprints["record"]

    # Noise floor: the off path against its own re-run.
    off_ratio = modes["off_again"] / modes["off"]
    assert 0.4 <= off_ratio <= 2.5, (
        "off-path re-run ratio %.2f outside noise band" % off_ratio)

    # The acceptance bound: an armed 1% tracer within 3x of off.
    sampled_ratio = modes["sampled"] / base
    assert sampled_ratio <= 3.0, (
        "sampled mode %.2fx vs off exceeds the 3x bound"
        % sampled_ratio)

    # The verdicts really are hash-driven: a dropped scan must
    # record nothing (kept scans may or may not occur at 1% over a
    # handful of ids -- that split is reported, not asserted).
    if sampled_outcomes["kept"] == 0:
        assert sampled_outcomes["events"] == 0
