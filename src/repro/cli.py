"""Command-line interface: run XMAS queries over XML files.

Usage::

    python -m repro query  -s homesSrc=homes.xml -s schoolsSrc=schools.xml \\
                           -q "CONSTRUCT ... WHERE ..."        # or -f q.xmas
    python -m repro plan   -q "..."      # show initial + rewritten plan
    python -m repro classify -q "..."    # per-node browsability report
    python -m repro profile -s ... -q "..."  # observed amplification
    python -m repro lint -q "..." [-s NAME=FILE]  # static diagnostics
    python -m repro lint --examples examples/     # lint the examples

``lint`` runs the compile-time plan analyzer (browsability, schema
paths, cost bounds, rewrite hints) and exits 0 (clean), 1 (warnings)
or 2 (errors) -- ``--fail-on`` moves the threshold, ``--json`` writes
the findings machine-readably.

``query`` also exports observability data: ``--trace-out FILE``
(with ``--trace-format jsonl|chrome``) dumps the causal span stream,
``--metrics-out FILE`` writes the query's metric series, read from its
counters, in Prometheus text exposition format.

``query`` builds a MIX mediator over the given files (each behind the
XML wrapper and the generic buffer), evaluates the query lazily, and
prints the answer document plus (with ``--stats``) the per-source
navigation counts.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Dict, List, Optional

from .errors import ReproError
from .mediator.mix import MIXMediator
from .rewriter.analyzer import classify_plan, explain_plan
from .rewriter.optimizer import optimize
from .runtime.config import EngineConfig
from .runtime.context import Tracer
from .runtime.observability import export_chrome_trace, export_jsonl
from .wrappers.xmlfile import XMLFileWrapper
from .xmas.parser import parse_xmas
from .xmas.translate import translate
from .xtree.serialize import to_xml

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MIX: navigation-driven evaluation of virtual "
                    "mediated views (EDBT 2000 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_file_sources(p):
        p.add_argument(
            "-s", "--source", action="append", default=[],
            metavar="NAME=FILE",
            help="register an XML file as source NAME (repeatable)")

    def add_query_arguments(p, with_sources: bool):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("-q", "--query", help="XMAS query text")
        group.add_argument("-f", "--query-file",
                           help="file containing the XMAS query")
        if with_sources:
            add_file_sources(p)
        return group

    # Where a flag sets an EngineConfig field, its ``dest`` *is* that
    # field's name: _engine_config() picks the fields out of the
    # namespace, so no command spells the mapping out again.
    run = sub.add_parser("query", help="evaluate a query lazily")
    run.set_defaults(run=_cmd_query)
    add_query_arguments(run, with_sources=True)
    run.add_argument("--eager", action="store_true",
                     help="materialize eagerly instead (the baseline)")
    run.add_argument("--pretty", action="store_true",
                     help="indent the answer document")
    run.add_argument("--stats", action="store_true",
                     help="print per-source navigation counts")
    run.add_argument("--chunk-size", type=int, default=10,
                     help="wrapper fill granularity (default 10)")
    run.add_argument("--no-optimize", action="store_false",
                     dest="optimize_plans",
                     help="skip the rewriting phase")
    run.add_argument("--no-cache", action="store_false",
                     dest="cache_enabled",
                     help="disable the operator caches (E7 ablation)")
    run.add_argument("--cache-budget", type=int, default=None,
                     metavar="N",
                     help="bound live cached entries to N "
                          "(LRU-evicting; default unbounded)")
    run.add_argument("--sigma", action="store_true", dest="use_sigma",
                     help="push sibling selection to the sources "
                          "(select(sigma))")
    run.add_argument("--hybrid", action="store_true",
                     help="allow intermediate eager steps above "
                          "unbrowsable subplans")
    run.add_argument("--pushdown", action="store_true",
                     help="compile maximal single-source subplans "
                          "into one native request each (E16; "
                          "default off keeps the lazy reference "
                          "path)")
    run.add_argument("--fragment-cache", action="store_true",
                     help="reuse materialized fragments of versioned "
                          "sources across sessions (E17; default off "
                          "keeps the lazy reference path)")
    run.add_argument("--retries", type=int, default=1, metavar="N",
                     dest="retry_max_attempts",
                     help="total attempts per source operation "
                          "(default 1 = fail fast; >1 enables "
                          "transient-failure retries with backoff)")
    run.add_argument("--retry-deadline", type=float, default=None,
                     metavar="MS", dest="retry_deadline_ms",
                     help="cumulative per-operation retry budget in "
                          "milliseconds (default: unbounded)")
    run.add_argument("--degrade", action="store_const",
                     const="degrade", default="fail",
                     dest="on_source_failure",
                     help="on exhausted source failure, splice a "
                          "<mix:error> placeholder into the answer "
                          "instead of aborting the query")
    run.add_argument("--prefetch", type=int, default=0, metavar="K",
                     help="buffer lookahead: fill up to K upcoming "
                          "holes per navigation (with "
                          "--batch-navigations: server-side "
                          "speculation depth)")
    run.add_argument("--batch-navigations", action="store_true",
                     help="pipeline LXP: ship batched fill commands "
                          "in one round trip and accept speculative "
                          "multi-fragment replies")
    run.add_argument("--trace-out", default=None, metavar="FILE",
                     help="record the causal span stream and write it "
                          "to FILE (enables tracing and per-operator "
                          "spans)")
    run.add_argument("--trace-format", choices=("jsonl", "chrome"),
                     default="jsonl",
                     help="trace dump format: jsonl (one event per "
                          "line) or chrome (trace_event JSON, "
                          "Perfetto-loadable; default jsonl)")
    run.add_argument("--metrics-out", default=None, metavar="FILE",
                     help="write the query's metric series, read "
                          "from its counters, to FILE in Prometheus "
                          "text exposition format")

    profile = sub.add_parser(
        "profile",
        help="empirical browsability profile: run the query under "
             "full observation and report the observed client->source "
             "navigation amplification per operator")
    profile.set_defaults(run=_cmd_profile)
    add_query_arguments(profile, with_sources=True)
    profile.add_argument("--chunk-size", type=int, default=10,
                         help="wrapper fill granularity (default 10)")
    profile.add_argument("--no-optimize", action="store_false",
                         dest="optimize_plans",
                         help="skip the rewriting phase")
    profile.add_argument("--sigma", action="store_true",
                         dest="use_sigma",
                         help="push sibling selection to the sources")

    plan = sub.add_parser("plan", help="show the algebraic plan")
    plan.set_defaults(run=_cmd_plan)
    add_query_arguments(plan, with_sources=False)

    classify = sub.add_parser(
        "classify", help="static browsability analysis")
    classify.set_defaults(run=_cmd_classify)
    add_query_arguments(classify, with_sources=False)
    classify.add_argument("--sigma", action="store_true",
                          help="assume select(sigma) is available")

    lint = sub.add_parser(
        "lint",
        help="static plan diagnostics: browsability, schema/path, "
             "cost and rewrite findings with CI-friendly exit codes "
             "(0 clean, 1 warnings, 2 errors)")
    lint.set_defaults(run=_cmd_lint)
    what = add_query_arguments(lint, with_sources=False)
    what.add_argument("--examples", metavar="DIR",
                      help="lint every XMAS query constant found in "
                           "the python files under DIR (queries are "
                           "extracted statically, never executed)")
    lint.add_argument("-s", "--source", action="append", default=[],
                      metavar="NAME=FILE",
                      help="use FILE as a sample document of source "
                           "NAME: enables the schema-aware path "
                           "checks (repeatable)")
    lint.add_argument("--sigma", action="store_true", dest="use_sigma",
                      help="assume select(sigma) is available")
    lint.add_argument("--hybrid", action="store_true",
                      help="assume hybrid (lazy/eager) evaluation")
    lint.add_argument("--no-optimize", action="store_false",
                      dest="optimize_plans",
                      help="lint the un-optimized initial plan")
    lint.add_argument("--cache-budget", type=int, default=None,
                      metavar="N",
                      help="assume a bounded cache budget (silences "
                           "the unbounded-cache findings)")
    lint.add_argument("--json", default=None, metavar="FILE",
                      help="additionally write the findings as JSON "
                           "to FILE ('-' for stdout)")
    lint.add_argument("--fail-on",
                      choices=("info", "warning", "error"),
                      default="warning",
                      help="lowest severity that makes the exit code "
                           "non-zero (default: warning)")
    lint.add_argument("--suppress", default="", metavar="CODES",
                      help="comma-separated finding codes to "
                           "suppress (e.g. B010,C010)")

    serve = sub.add_parser(
        "serve", help="run the mediator as a long-lived session "
                      "daemon (LXP over TCP)")
    serve.set_defaults(run=_cmd_serve)
    add_file_sources(serve)
    serve.add_argument("--workload", default=None, metavar="SPEC",
                       help="register a built-in workload instead of "
                            "files: homes:N (the Figure 3 sources at "
                            "N homes)")
    serve.add_argument("--host", default="127.0.0.1", metavar="HOST",
                       dest="serve_host")
    serve.add_argument("--port", type=int, default=0, metavar="PORT",
                       dest="serve_port",
                       help="0 picks a free port (printed on stdout)")
    serve.add_argument("--max-sessions", type=int, default=64,
                       metavar="MAX_SESSIONS",
                       dest="serve_max_sessions")
    serve.add_argument("--idle-timeout", type=float, default=30000.0,
                       metavar="MS", dest="serve_idle_timeout_ms")
    serve.add_argument("--send-timeout", type=float, default=5000.0,
                       metavar="MS", dest="serve_send_timeout_ms")
    serve.add_argument("--request-deadline", type=float, default=None,
                       metavar="MS", dest="serve_request_deadline_ms")
    serve.add_argument("--session-max-fills", type=int, default=None,
                       metavar="N", dest="serve_session_max_fills")
    serve.add_argument("--session-max-bytes", type=int, default=None,
                       metavar="N", dest="serve_session_max_bytes")
    serve.add_argument("--drain-timeout", type=float, default=5000.0,
                       metavar="MS", dest="serve_drain_timeout_ms")
    serve.add_argument("--chunk-size", type=int, default=2)
    serve.add_argument("--fragment-cache", action="store_true",
                       help="share materialized fragments of "
                            "versioned sources across the daemon's "
                            "sessions (E17)")
    serve.add_argument("--metrics-out", default=None, metavar="FILE",
                       help="write Prometheus text metrics after "
                            "drain")
    serve.add_argument("--trace-out", default=None, metavar="FILE",
                       help="write the causal span stream (jsonl) "
                            "after drain")
    serve.add_argument("--trace-sample-rate", type=float, default=1.0,
                       metavar="R",
                       help="fraction of traces recorded (hash-based, "
                            "deterministic per trace id)")
    serve.add_argument("--slow-request", type=float, default=None,
                       metavar="MS", dest="slow_request_ms",
                       help="log requests at or over MS to the "
                            "flight recorder")
    serve.add_argument("--flight-recorder", type=int, default=256,
                       metavar="N", dest="serve_flight_recorder_events",
                       help="flight-recorder ring capacity (last N "
                            "operational events)")
    serve.add_argument("--incident-dir", default=None, metavar="DIR",
                       dest="serve_incident_dir",
                       help="dump flight-recorder contents to DIR "
                            "on session kill and drain")

    status = sub.add_parser(
        "status", help="query a running serve daemon's live "
                       "operational state (mix:status)")
    status.set_defaults(run=_cmd_status)
    status.add_argument("address", metavar="HOST:PORT",
                        help="the daemon's listen address")
    status.add_argument("--json", default=None, metavar="FILE",
                        help="write the raw status reply as JSON "
                             "('-' for stdout)")
    status.add_argument("--prometheus", action="store_true",
                        help="print the daemon's Prometheus text "
                             "exposition instead of the table")
    status.add_argument("--timeout", type=float, default=5000.0,
                        metavar="MS")

    trace = sub.add_parser(
        "trace", help="work with exported trace JSONL files")
    trace_sub = trace.add_subparsers(dest="trace_command",
                                     required=True)
    merge = trace_sub.add_parser(
        "merge", help="join a client and a server trace export into "
                      "one causal forest")
    merge.set_defaults(run=_cmd_trace_merge)
    merge.add_argument("client_trace", metavar="CLIENT.jsonl")
    merge.add_argument("server_trace", metavar="SERVER.jsonl")
    merge.add_argument("-o", "--out", default=None, metavar="FILE",
                       help="write the merged stream as JSONL "
                            "('-' for stdout)")

    loadgen = sub.add_parser(
        "loadgen", help="drive concurrent sessions into a running "
                        "serve daemon and report latency")
    loadgen.set_defaults(run=_cmd_loadgen)
    add_query_arguments(loadgen, with_sources=False)
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, required=True)
    loadgen.add_argument("--sessions", type=int, default=100)
    loadgen.add_argument("--concurrency", type=int, default=16)
    loadgen.add_argument("--rounds", type=int, default=4,
                         help="navigation rounds per session")
    loadgen.add_argument("--timeout", type=float, default=10000.0,
                         metavar="MS")
    loadgen.add_argument("--json", default=None, metavar="FILE",
                         help="write the report as JSON to FILE "
                              "('-' for stdout)")
    return parser


def _query_text(args) -> str:
    if args.query is not None:
        return args.query
    with open(args.query_file) as handle:
        return handle.read()


def _parse_sources(specs: List[str]) -> Dict[str, str]:
    sources = {}
    for spec in specs:
        name, eq, path = spec.partition("=")
        if not eq or not name or not path:
            raise SystemExit(
                "bad --source %r (expected NAME=FILE)" % spec)
        sources[name] = path
    return sources


_CONFIG_FIELDS = frozenset(
    field.name for field in dataclasses.fields(EngineConfig))


def _engine_config(args, **extra) -> EngineConfig:
    """The engine configuration a command line asks for: every
    argparse ``dest`` that names an :class:`EngineConfig` field (see
    ``_build_parser``), plus what the command derives (``extra``)."""
    settings = {name: value for name, value in vars(args).items()
                if name in _CONFIG_FIELDS}
    settings.update(extra)
    return EngineConfig(**settings)


def _observed_mediator(args) -> MIXMediator:
    """The mediator for a command with ``--trace-out``: it records
    the span stream with every operator observed.  (``--metrics-out``
    needs nothing armed: the series are read from the counters.)"""
    tracing = args.trace_out is not None
    config = _engine_config(args, observe_operators=tracing)
    return MIXMediator(
        config, tracer=Tracer(record=True) if tracing else None)


def _register_files(mediator: MIXMediator, args) -> None:
    """Register every ``-s NAME=FILE`` behind the XML wrapper."""
    for name, path in _parse_sources(args.source).items():
        with open(path) as handle:
            xml_text = handle.read()
        mediator.register_wrapper(
            name, XMLFileWrapper(name, xml_text,
                                 chunk_size=args.chunk_size))


def _emit(text: str, dest: str, label: str) -> None:
    """Write ``text`` where a ``--json``-style flag points: stdout for
    ``-``, else the file ``dest`` (noted on stderr as ``label``).
    Empty ``text`` prints nothing, not a blank line."""
    if dest == "-":
        if text:
            print(text)
    else:
        with open(dest, "w") as handle:
            handle.write(text + "\n")
        print("-- %s -> %s --" % (label, dest), file=sys.stderr)


def _write_metrics(context, path: str) -> None:
    with open(path, "w") as handle:
        handle.write(context.metrics_prometheus())
    print("-- metrics -> %s --" % path, file=sys.stderr)


def _cmd_query(args) -> int:
    mediator = _observed_mediator(args)
    _register_files(mediator, args)
    text = _query_text(args)
    result = None
    if args.eager:
        answer = mediator.query_eager(text)
    else:
        result = mediator.prepare(text)
        answer = result.materialize()
    print(to_xml(answer, pretty=args.pretty))
    if args.trace_out is not None:
        exporter = (export_chrome_trace
                    if args.trace_format == "chrome" else export_jsonl)
        written = exporter(mediator.tracer.events, args.trace_out)
        print("-- trace: %d events -> %s (%s) --"
              % (written, args.trace_out, args.trace_format),
              file=sys.stderr)
    if args.metrics_out is not None:
        _write_metrics(result.context if result is not None
                       else mediator.runtime, args.metrics_out)
    if args.stats:
        print("-- source navigations --", file=sys.stderr)
        for name, meter in sorted(mediator.meters.items()):
            print("  %-16s %s" % (name, meter.counters),
                  file=sys.stderr)
        if result is not None:
            stats = result.stats()
            caches = stats["caches"]
            print("-- caches (budget=%s, %s) --"
                  % (caches["budget"],
                     "on" if caches["enabled"] else "off"),
                  file=sys.stderr)
            for name, counts in sorted(caches["caches"].items()):
                print("  %-22s hits=%-6d misses=%-6d evictions=%d"
                      % (name, counts["hits"], counts["misses"],
                         counts["evictions"]), file=sys.stderr)
            pushed = stats.get("pushdown")
            if pushed:
                print("-- pushdown --", file=sys.stderr)
                for decision in pushed["decisions"]:
                    print("  %-6s %s: %s"
                          % ("pushed" if decision["pushed"]
                             else "kept", decision["url"],
                             decision["detail"]), file=sys.stderr)
            fragcache = stats.get("fragcache")
            if fragcache:
                print("-- fragment cache --", file=sys.stderr)
                if "hits" in fragcache:
                    print("  hits=%d misses=%d invalidations=%d"
                          % (fragcache["hits"], fragcache["misses"],
                             fragcache["invalidations"]),
                          file=sys.stderr)
                for decision in fragcache.get("decisions", ()):
                    print("  %-6s %s: %s"
                          % ("cached" if decision["cached"]
                             else "kept", decision["url"],
                             decision["detail"]), file=sys.stderr)
            resilience = stats.get("resilience")
            if resilience:
                print("-- resilience --", file=sys.stderr)
                for name, counts in sorted(
                        resilience["per_source"].items()):
                    print("  %-16s retries=%-4d giveups=%-4d "
                          "degraded=%-4d breaker_opens=%d"
                          % (name, counts["retries"],
                             counts["giveups"], counts["degraded"],
                             counts["breaker_opens"]),
                          file=sys.stderr)
    return 0


def _cmd_profile(args) -> int:
    mediator = MIXMediator(_engine_config(args))
    _register_files(mediator, args)
    result = mediator.prepare(_query_text(args))
    print(result.explain(analyze=True))
    return 0


def _cmd_plan(args) -> int:
    plan = translate(parse_xmas(_query_text(args)))
    print("initial plan:")
    print(plan.pretty())
    optimized, trace = optimize(plan)
    if trace.applied:
        print()
        print("rewritten plan (%s):" % ", ".join(trace.applied))
        print(optimized.pretty())
    else:
        print()
        print("no rewrite rules applied")
    print()
    print("browsability: %s" % classify_plan(optimized))
    return 0


def _cmd_classify(args) -> int:
    plan = translate(parse_xmas(_query_text(args)))
    print(explain_plan(plan, sigma_available=args.sigma))
    return 0


def _cmd_lint(args) -> int:
    from pathlib import Path

    from .analysis import analyze_query, scan_examples
    from .analysis.findings import Severity
    from .wrappers.xmlfile import document_node
    from .xtree.parse import parse_xml

    config = _engine_config(args)
    fail_on = Severity.parse(args.fail_on)
    suppress = tuple(code.strip()
                     for code in args.suppress.split(",")
                     if code.strip())

    if args.examples is not None:
        reports = scan_examples(Path(args.examples), config=config)
        if not reports:
            print("no XMAS query constants found under %s"
                  % args.examples, file=sys.stderr)
            return 2
    else:
        schemas = {}
        for name, path in _parse_sources(args.source).items():
            with open(path) as handle:
                schemas[name] = document_node(
                    name, parse_xml(handle.read()))
        subject = args.query_file or "<query>"
        try:
            _plan, report = analyze_query(
                _query_text(args), config=config, schemas=schemas,
                suppress=suppress, subject=subject)
        except ReproError as exc:
            from .analysis import AnalysisReport, Finding
            report = AnalysisReport(
                [Finding(code="X001", message=str(exc))],
                verdict="unknown", subject=subject)
        reports = [report]

    exit_code = 0
    for report in reports:
        print(report.summary())
        print()
        exit_code = max(exit_code, report.exit_code(fail_on=fail_on))
    if args.json is not None:
        payload = ([r.to_dict() for r in reports]
                   if args.examples is not None
                   else reports[0].to_dict())
        _emit(json.dumps(payload, indent=2, sort_keys=True),
              args.json, "findings")
    print("lint: %d subject(s), exit %d" % (len(reports), exit_code),
          file=sys.stderr)
    return exit_code


def _serve_mediator(args) -> MIXMediator:
    """A mediator over the requested sources for the daemon."""
    mediator = _observed_mediator(args)
    _register_files(mediator, args)
    if args.workload is not None:
        kind, _, scale = args.workload.partition(":")
        scale = scale or "50"
        if kind != "homes" or not scale.isdigit():
            raise SystemExit("unknown --workload %r (try homes:N)"
                             % args.workload)
        from .bench.workloads import homes_and_schools
        from .navigation.materialized import MaterializedDocument
        for name, tree in homes_and_schools(int(scale)).items():
            mediator.register_source(name, MaterializedDocument(tree))
    if not args.source and args.workload is None:
        raise SystemExit("serve needs at least one -s NAME=FILE "
                         "or --workload")
    return mediator


def _cmd_serve(args) -> int:
    import signal
    import threading

    from .server.daemon import MediatorServer

    mediator = _serve_mediator(args)
    server = MediatorServer(mediator)
    host, port = server.start()
    stop = threading.Event()

    def request_drain(signum, frame) -> None:
        stop.set()

    # Armed before the contract line: a peer that reads it may
    # signal at once.
    signal.signal(signal.SIGTERM, request_drain)
    signal.signal(signal.SIGINT, request_drain)
    # The contract line tooling scripts key off (stdout, flushed
    # before anything else): "serving HOST PORT".
    print("serving %s %d" % (host, port), flush=True)
    while not stop.wait(0.2):
        pass
    clean = server.drain()
    snapshot = server.stats.snapshot()
    print("drained clean=%s sessions=%d rejected=%d"
          % (clean, snapshot["sessions_opened"],
             snapshot["rejected_busy"] + snapshot["rejected_draining"]),
          flush=True)
    if args.trace_out is not None:
        written = export_jsonl(mediator.tracer.events, args.trace_out)
        print("-- trace: %d events -> %s --"
              % (written, args.trace_out), file=sys.stderr)
    if args.metrics_out is not None:
        _write_metrics(mediator.runtime, args.metrics_out)
    return 0


def _format_status_table(status: Dict[str, object]) -> str:
    """The human-facing ``repro status`` rendering: a header line,
    the lifetime counters, and one row per live session."""
    lines: List[str] = []
    address = status.get("address")
    where = ("%s:%s" % tuple(address)
             if isinstance(address, list) and len(address) == 2
             else "?")
    state = "DRAINING" if status.get("draining") else "serving"
    lines.append("mix daemon at %s: %s, %s active session(s)"
                 % (where, state, status.get("active_sessions", 0)))
    server = status.get("server")
    if isinstance(server, dict):
        lines.append("  lifetime: " + "  ".join(
            "%s=%s" % (key, server[key]) for key in sorted(server)))
    fragcache = status.get("fragcache")
    if isinstance(fragcache, dict):
        lines.append("  fragcache: " + "  ".join(
            "%s=%s" % (key, fragcache[key])
            for key in sorted(fragcache)))
    recorder = status.get("flight_recorder")
    if isinstance(recorder, dict):
        lines.append("  flight recorder: %s/%s events, %s recorded, "
                     "%s incident(s)"
                     % (recorder.get("size"), recorder.get("capacity"),
                        recorder.get("recorded"),
                        recorder.get("incidents")))
    sessions = status.get("sessions")
    if isinstance(sessions, list) and sessions:
        header = ("  %-14s %10s %8s %6s %12s %14s %10s"
                  % ("session", "age_ms", "reqs", "fills",
                     "bytes", "budget_fills", "in_flight"))
        lines.append(header)
        for row in sessions:
            if not isinstance(row, dict):
                continue
            budget = row.get("budget_remaining") or {}
            fills_left = (budget.get("fills")
                          if isinstance(budget, dict) else None)
            age = row.get("age_ms")
            lines.append(
                "  %-14s %10s %8s %6s %12s %14s %10s"
                % (row.get("session"),
                   "%.0f" % age if isinstance(age, (int, float))
                   else "-",
                   row.get("requests"), row.get("fills"),
                   row.get("bytes_shipped"),
                   fills_left if fills_left is not None else "-",
                   row.get("in_flight") or "-"))
    else:
        lines.append("  (no live sessions)")
    return "\n".join(lines)


def _cmd_status(args) -> int:
    from .errors import SourceError
    from .server.client import fetch_status

    host, colon, port_text = args.address.rpartition(":")
    if not colon or not host or not port_text.isdigit():
        raise SystemExit("bad address %r (expected HOST:PORT)"
                         % args.address)
    want_prometheus = args.prometheus
    try:
        status = fetch_status(host, int(port_text),
                              timeout_ms=args.timeout,
                              prometheus=want_prometheus)
    except (SourceError, OSError) as err:
        print("status: %s unreachable: %s" % (args.address, err),
              file=sys.stderr)
        return 2
    if args.json is not None:
        _emit(json.dumps(status, indent=2, sort_keys=True),
              args.json, "status")
    if want_prometheus:
        print(status.get("prometheus", ""), end="")
    elif args.json is None:
        print(_format_status_table(status))
    return 1 if status.get("draining") else 0


def _cmd_trace_merge(args) -> int:
    from .runtime.observability import (build_span_tree,
                                        contract_violations,
                                        load_jsonl, merge_traces)

    client_records = load_jsonl(args.client_trace)
    server_records = load_jsonl(args.server_trace)
    merged = merge_traces(client_records, server_records)
    forest = build_span_tree(merged)
    violations = contract_violations(merged)
    print("trace merge: %d client + %d server = %d events, "
          "%d root span(s)"
          % (len(client_records), len(server_records), len(merged),
             len(forest.roots)))
    problems = len(forest.orphans) + len(violations)
    for label, items in (("orphans",
                          ["%s (span %s)" % (node.name, node.span_id)
                           for node in forest.orphans]),
                         ("contract violations", violations)):
        if items:
            print("  %s (%d):" % (label, len(items)))
            for item in items[:10]:
                print("    %s" % (item,))
    if args.out is not None:
        _emit("\n".join(json.dumps(record.to_dict(), sort_keys=True)
                        for record in merged),
              args.out, "merged trace")
    return 1 if problems else 0


def _cmd_loadgen(args) -> int:
    from .bench.loadgen import run_load

    report = run_load(args.host, args.port, _query_text(args),
                      sessions=args.sessions,
                      concurrency=args.concurrency,
                      rounds=args.rounds,
                      timeout_ms=args.timeout)
    print("loadgen: %d/%d sessions ok (%d busy, %d failed), "
          "%.1f sessions/s, nav p50=%.2fms p99=%.2fms"
          % (report.completed, len(report.outcomes),
             report.rejected_busy, report.failed,
             report.sessions_per_sec,
             report.latency_ms(0.50), report.latency_ms(0.99)))
    correlation = report.server_correlation
    if not correlation.get("available"):
        print("loadgen: server correlation unavailable "
              "(status probe failed)", file=sys.stderr)
    elif correlation.get("reconciled"):
        print("loadgen: server counters reconciled "
              "(sessions/requests/fills match)")
    else:
        for mismatch in correlation.get("mismatches", []):
            print("loadgen: counter mismatch -- %s" % mismatch,
                  file=sys.stderr)
    if args.json is not None:
        _emit(json.dumps(report.as_dict(), indent=2, sort_keys=True),
              args.json, "report")
    return 0 if report.failed == 0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    raise SystemExit(main())
