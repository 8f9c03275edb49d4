"""The repo's benchmark: wall-clock workloads from ``XMLElement`` to the
source and back, with per-layer attribution.

One measured run (what BENCHMARK.json's ``command`` is run as)::

    python3 benchmarks/perf/run.py --workload NAME --seed N \\
        --seconds S --trace 0|1

prints its metrics by name and, as its last line, one JSON object.
``--trace 0`` gives the end-to-end metrics of an untraced pass;
``--trace 1`` runs an untraced pass and then a pass with timing proxies
at the public seams, and gives the per-layer metrics.

The whole set (each run in a fresh subprocess)::

    python3 benchmarks/perf/run.py [--seed N] [--workload NAME]
                                   [--smoke] [--runs K] [--record]
    python3 benchmarks/perf/run.py --compare A.json B.json

See README.md beside this file for the metric glossary.
"""

from time import perf_counter

_STARTED = perf_counter()

import argparse
import datetime
import gc
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
RESULTS = HERE / "results"
sys.path.insert(0, str(REPO / "src"))

from spans import ROOT
from stats import by_slice, percentile, spread, supported

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

#: set-ups per run; the median is reported, the last one is measured
SETUP_REPEATS = 3
#: share of a --trace 1 run spent on its untraced pass
UNTRACED_SHARE = 0.5
PROBE_CALLS = 200


# ----------------------------------------------------------------------
# one measured run
# ----------------------------------------------------------------------

def run_one(name: str, seed: int, seconds: float, traced: bool,
            smoke: bool) -> dict:
    """Set up ``name``, measure it, tear it down; the result object."""
    import workloads as wl  # imports repro: part of set-up time

    imported = perf_counter()
    workload = wl.WORKLOADS[name](seed, smoke)
    setups = []
    repeats = 1 if smoke else SETUP_REPEATS
    for index in range(repeats):
        if index:
            workload.teardown()
        started = perf_counter()
        workload.setup()
        setups.append(perf_counter() - started)
    # The harness's own long-lived objects (inputs, oracle) are not the
    # program's garbage: keep them out of its collector's scans.
    gc.collect()
    gc.freeze()
    failures = []
    try:
        if seed == wl.DEFAULT_SEED:
            failures += catalog_drift(name, workload.catalog_entry())
        daemon = getattr(workload, "daemon", None)
        extra = probes(workload) if traced else {}
        driver_cpu = wl.cpu_s()
        daemon_cpu = daemon.cpu_s() if daemon else 0.0
        plain = wl.measure(
            workload, seconds * (UNTRACED_SHARE if traced else 1.0))
        driver_cpu = wl.cpu_s() - driver_cpu
        daemon_cpu = daemon.cpu_s() - daemon_cpu if daemon else 0.0
        passes = [plain]
        if traced:
            passes.append(wl.measure(
                workload, seconds * (1.0 - UNTRACED_SHARE),
                wl.Recorder()))
    finally:
        workload.teardown()
    if daemon is not None and workload.daemon_exit != 0:
        failures.append("daemon exited %r after SIGTERM"
                        % (workload.daemon_exit,))
    for samples in passes:
        failures += samples.errors
        if not samples.op_ms:
            failures.append("no op completed")
    if failures:
        return {"correct": False,
                "attempted": sum(s.attempted for s in passes),
                "failed": max(1, sum(s.failed for s in passes)),
                "metrics": {}, "errors": failures[:10]}
    if traced:
        values = per_layer(workload, plain, passes[1], driver_cpu,
                           daemon_cpu, extra)
        write_trace(name, seed, passes[1].sample_spans)
        spec = PER_LAYER
    else:
        values = {
            # each the best one-second slice of the pass (stats.by_slice)
            "op_ms_p50": min(map(
                statistics.median, by_slice(plain.ended_s, plain.op_ms))),
            "ops_per_s": max(
                plain.clients * 1e3 / statistics.mean(group)
                for group in by_slice(plain.ended_s, plain.op_ms)),
            "first_result_ms_p50": min(map(
                statistics.median,
                by_slice(plain.ended_s, plain.first_ms))),
            "peak_rss_mb": (daemon.peak_rss_mb if daemon
                            else wl.peak_rss_mb()),
            "setup_s": (imported - _STARTED)
            + statistics.median(setups),
        }
        spec = END_TO_END
    return {"correct": True,
            "attempted": sum(s.attempted for s in passes),
            "failed": 0,
            "metrics": {key: {"value": values.get(key, 0.0),
                              "unit": spec[key]["unit"]}
                        for key in spec}}


def catalog_drift(name: str, entry: dict) -> list:
    """At the default seed the workload must be the pinned one."""
    pinned = json.loads(
        (HERE / "catalog.lock.json").read_text()).get(name, {})
    return ["catalog drift in %s.%s: %r != pinned %r"
            % (name, key, entry[key], pinned.get(key))
            for key in entry if entry[key] != pinned.get(key)]


def probe_ms(function) -> float:
    """Median milliseconds of PROBE_CALLS direct calls."""
    times = []
    for _ in range(PROBE_CALLS):
        started = perf_counter()
        function()
        times.append(perf_counter() - started)
    return statistics.median(times) * 1e3


def probes(workload) -> dict:
    """Direct-call timings of the query-processing and wire-codec
    functions, on the workload's own query and answer."""
    from repro import (
        ExecutionContext, build_virtual_document, optimize, parse_xmas,
        translate,
    )
    from repro.buffer.holes import fragment_of_tree
    from repro.navigation.materialized import MaterializedDocument
    from repro.server.wire import decode_fragments, encode_fragments
    from repro.xtree.tree import Tree, tree_size

    mediator = workload.fresh_mediator()
    result = mediator.prepare(workload.query)
    ast = parse_xmas(workload.query)
    stub = MaterializedDocument(Tree("stub"))
    answer = workload.answer_tree()
    fragments = [fragment_of_tree(answer)]
    nodes = tree_size(answer)

    def encode() -> str:
        return json.dumps(
            # a closed tree has no holes to intern
            {"ok": True, "fragments": encode_fragments(fragments, None)},
            separators=(",", ":"))

    body = encode()
    return {
        "xmas.parse_ms": probe_ms(lambda: parse_xmas(workload.query)),
        "xmas.translate_ms": probe_ms(lambda: translate(ast)),
        "rewriter.optimize_ms":
            probe_ms(lambda: optimize(result.initial_plan)),
        "rewriter.rules_applied":
            len(result.optimization_trace.applied),
        "lazy.build_ms": probe_ms(lambda: build_virtual_document(
            result.executed_plan, lambda url: stub,
            ExecutionContext.create())),
        "wire.encode_us_per_node": probe_ms(encode) * 1e3 / nodes,
        "wire.decode_us_per_node": probe_ms(
            lambda: decode_fragments(json.loads(body)["fragments"]))
        * 1e3 / nodes,
        "wire.bytes_per_node": len(body) / nodes,
    }


def per_layer(workload, plain, traced, driver_cpu: float,
              daemon_cpu: float, values: dict) -> dict:
    """The per-layer metrics of a --trace 1 run.  Counts come from the
    untraced pass's public stats (the traced pass was held to the same
    counts op by op), self times from the traced pass."""
    ops = len(traced.op_ms)
    layers = traced.layers

    def self_ms(layer: str) -> float:
        return layers.get(layer, (0.0, 0))[0] * 1e3 / ops

    def calls(layer: str) -> float:
        return layers.get(layer, (0.0, 0))[1] / ops

    counts = dict(workload.expected_counts)
    for layer, metric in (
            ("lazy", "lazy.self_ms"),
            ("mediator.register", "mediator.register_ms"),
            ("mediator.prepare", "mediator.prepare_ms"),
            ("client", "client.self_ms"),
            ("navigation", "navigation.source_self_ms"),
            ("buffer", "buffer.self_ms"),
            ("wrappers", "wrappers.self_ms"),
            ("relational", "relational.self_ms"),
            ("fragcache.stack", "fragcache.stack_self_ms"),
            ("server_client.connect", "server_client.connect_ms"),
            ("server_client.round_trip", "server_client.round_trip_ms"),
            ("server_client.close", "server_client.close_ms")):
        values[metric] = self_ms(layer)
    values["lazy.calls"] = calls("lazy")
    # the client's navigations are the calls on the seam below it
    values["client.calls"] = calls(workload.document_layer)
    connection = getattr(workload, "connection", None)
    if connection is not None:
        values["relational.cursor_advances"] = \
            connection.cursor_advances
    hits = counts.pop("buffer.hits", 0)
    values.update(counts)
    if values.get("client.calls") and "navigation.source_navs" in counts:
        values["navigation.amplification"] = \
            counts["navigation.source_navs"] / values["client.calls"]
    if counts.get("buffer.navigations"):
        values["buffer.hit_ratio"] = hits / counts["buffer.navigations"]
    if counts.get("wrappers.fills"):
        values["wrappers.nodes_per_fill"] = \
            counts["wrappers.nodes_shipped"] / counts["wrappers.fills"]
    values["driver.cpu_ms_per_op"] = driver_cpu * 1e3 / plain.attempted
    values["driver.op_ms_p50"] = statistics.median(plain.op_ms)
    values["driver.op_ms_p90"] = percentile(plain.op_ms, 0.90)
    if not supported(len(plain.op_ms), 0.90):
        print("note: %d untraced ops do not support a p90 (fewer than "
              "ten beyond it)" % len(plain.op_ms))
    values["trace.overhead_ratio"] = (statistics.median(traced.op_ms)
                                      / statistics.median(plain.op_ms))
    total = sum(self_s for self_s, _count in layers.values())
    values["trace.coverage"] = 1.0 - layers[ROOT][0] / total
    daemon = getattr(workload, "daemon", None)
    if daemon is not None:
        delta = plain.daemon_delta
        values.update({
            "daemon.startup_s": daemon.startup_s,
            "daemon.cpu_ms_per_op": daemon_cpu * 1e3 / plain.attempted,
            "daemon.peak_rss_mb": daemon.peak_rss_mb,
            "daemon.requests": delta["requests"] / plain.attempted,
            "daemon.fills": delta["fills"] / plain.attempted,
            "daemon.sessions_opened":
                delta["sessions_opened"] / plain.attempted,
            "daemon.rejected_busy": delta["rejected_busy"],
            "daemon.kills": sum(value for key, value in delta.items()
                                if key.endswith("_kills")),
        })
        frames = plain.frames_ms
        for kind in ("open", "close", "drill", "scan", "burst"):
            if kind in frames:
                values["daemon.%s_ms_p50" % kind] = \
                    statistics.median(frames[kind])
        navigations = [ms for kind in ("drill", "scan", "burst")
                       for ms in frames.get(kind, ())]
        if navigations:
            values["daemon.nav_ms_p50"] = statistics.median(navigations)
            values["daemon.nav_ms_p99"] = percentile(navigations, 0.99)
    return values


def write_trace(name: str, seed: int, spans: list) -> None:
    """The first traced ops' raw spans, for reading by hand."""
    RESULTS.mkdir(exist_ok=True)
    origin = spans[0][1] if spans else 0.0
    with open(RESULTS / ("trace-%s.json" % name), "w") as handle:
        json.dump({"workload": name, "seed": seed,
                   "columns": ["layer", "start_us", "end_us",
                               "parent", "op"],
                   "spans": [[layer, round((start - origin) * 1e6, 1),
                              round((end - origin) * 1e6, 1), parent, op]
                             for layer, start, end, parent, op
                             in spans]}, handle)
        handle.write("\n")


def print_metrics(result: dict) -> None:
    for key, metric in result["metrics"].items():
        print("%-30s %14.4f %s" % (key, metric["value"],
                                   metric["unit"]))
    for error in result.get("errors", ()):
        print("FAILED: %s" % error)


# ----------------------------------------------------------------------
# the whole set
# ----------------------------------------------------------------------

def run_child(name: str, seed: int, seconds: float, trace: int,
              smoke: bool) -> dict:
    """One measured run in a fresh process (own peak RSS, clean shared
    store, no leaked daemon)."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)] + (["--smoke"] if smoke else [])
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          cwd=str(REPO), timeout=180)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False, "attempted": 0, "failed": 1,
                "metrics": {}, "errors": [
                    "run exited %d without a result" % done.returncode]}


def run_suite(args) -> int:
    seconds = 0.3 if args.smoke else float(SPEC["run_seconds"])
    names = [args.workload] if args.workload \
        else [w["name"] for w in SPEC["workloads"]]
    report = {"commit": git_commit(),
              "date": datetime.datetime.now(datetime.timezone.utc)
              .isoformat(timespec="seconds"),
              "seed": args.seed, "seconds": seconds, "workloads": {}}
    ok = True
    for name in names:
        runs = []
        for _ in range(args.runs):
            untraced = run_child(name, args.seed, seconds, 0, args.smoke)
            layered = run_child(name, args.seed, seconds, 1, args.smoke)
            for result in (untraced, layered):
                ok = ok and result["correct"]
                print("== %s %s: %d ops, %d failed" % (
                    name,
                    "per layer" if result is layered else "end to end",
                    result["attempted"], result["failed"]))
                print_metrics(result)
            runs.append({
                "correct": untraced["correct"] and layered["correct"],
                "attempted": untraced["attempted"],
                "failed": untraced["failed"] + layered["failed"],
                "end_to_end": {k: m["value"] for k, m
                               in untraced["metrics"].items()},
                "per_layer": {k: m["value"] for k, m
                              in layered["metrics"].items()}})
        report["workloads"][name] = runs
    RESULTS.mkdir(exist_ok=True)
    out = Path(args.out) if args.out else RESULTS / "BENCH_PERF.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print("-- wrote %s --" % out)
    if args.record and ok:
        line = {key: report[key]
                for key in ("commit", "date", "seed", "seconds")}
        line["metrics"] = {
            name: {metric: statistics.median(
                run["end_to_end"][metric] for run in runs)
                for metric in END_TO_END}
            for name, runs in report["workloads"].items()}
        with open(RESULTS / "HISTORY.jsonl", "a") as handle:
            handle.write(json.dumps(line, sort_keys=True) + "\n")
        print("-- appended to %s --" % (RESULTS / "HISTORY.jsonl"))
    return 0 if ok else 1


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              cwd=str(REPO), timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


# ----------------------------------------------------------------------
# comparing two reports
# ----------------------------------------------------------------------

def verdict(parent: list, change: list, better: str,
            bound: float) -> str:
    """One (workload, metric) row of ``--compare``.

    ``worse`` when the change's median is worse than the parent's by
    more than ``bound``; ``unresolved`` when either side's run-to-run
    spread is wider than the bound, unless every run of one side
    reads better than every run of the other.
    """
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(parent)
    worse_by = sign * (statistics.median(change) - base) / abs(base)
    noisy = any(len(side) >= 4 and spread(side) > bound
                for side in (parent, change))
    if noisy:
        if max(sign * v for v in change) < min(sign * v for v in parent):
            return "better"
        if min(sign * v for v in change) > max(sign * v for v in parent):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    return "better" if worse_by < -bound else "no worse"


def compare(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    worse = 0
    print("%-16s %-20s %12s %12s  %s" % (
        "workload", "metric", "parent", "change", "verdict"))
    for name in a:
        if name not in b:
            continue
        for metric, spec in END_TO_END.items():
            parent = [run["end_to_end"][metric] for run in a[name]]
            change = [run["end_to_end"][metric] for run in b[name]]
            row = verdict(parent, change, spec["better"], spec["bound"])
            worse += row == "worse"
            print("%-16s %-20s %12.4f %12.4f  %s" % (
                name, metric, statistics.median(parent),
                statistics.median(change), row))
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measure one workload in this process "
                             "for this long (needs --workload)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="short runs, one set-up, little warm-up")
    parser.add_argument("--runs", type=int, default=1,
                        help="whole set: repeats per workload")
    parser.add_argument("--record", action="store_true",
                        help="whole set: append to HISTORY.jsonl")
    parser.add_argument("--out", help="whole set: report path")
    parser.add_argument("--compare", nargs=2, metavar="REPORT")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.seconds is None:
        return run_suite(args)
    if args.workload is None:
        parser.error("--seconds needs --workload")
    result = run_one(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.smoke)
    print_metrics(result)
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
