"""The unified runtime spine: config, caches, telemetry, resilience.

Everything cross-cutting in the evaluation tower lives here:

* :class:`EngineConfig` -- one frozen configuration object replacing
  the old ``cache_enabled``/``use_sigma`` boolean plumbing;
* :class:`CacheManager`/:class:`ManagedCache` -- the paper's operator
  caches under one memory-budgeted, LRU-evicting registry with
  per-cache hit/miss/eviction counters;
* :class:`Counters` -- the one base under every ``*Stats`` class
  (declared fields; generic snapshot/reset/as_dict/+/-), registered
  by ``(kind, name)`` with the context for aggregated reporting;
* :class:`ExecutionContext`/:class:`Tracer` -- the per-query carrier
  of config, caches, and span/event hooks, created per ``prepare()``
  and threaded client -> mediator -> lazy operators -> buffer;
* :class:`RetryPolicy`/:class:`CircuitBreaker`/
  :class:`ResilientLXPServer` -- fault tolerance at the I/O seams:
  bounded retries with deterministic backoff, per-source breakers,
  and ``<mix:error>`` partial-answer degradation;
* the span/exporter toolkit (:mod:`repro.runtime.observability`) --
  causal span trees over the tracer's event stream, JSONL /
  Chrome-trace exporters, and the one metrics renderer that turns
  counters read at scrape time into snapshots and Prometheus text.
"""

# First: with REPRO_LOCK_SANITIZER=1, importing .locks arms the
# sanitizer, which imports repro.testing and (through its fault
# harness) re-enters this package's modules -- they must find
# make_lock already defined.
from . import locks  # noqa: F401
from .cache import MISS, CacheManager, CacheStats, ManagedCache
from .config import ConfigError, EngineConfig, validate_granularity
from .context import ExecutionContext, Tracer
from .counters import Counters
from .observability import (
    EVENT_NAMES,
    FlightRecorder,
    SpanForest,
    SpanNode,
    TraceEvent,
    build_span_tree,
    contract_violations,
    export_chrome_trace,
    export_jsonl,
    load_jsonl,
    merge_traces,
    sample_trace,
)
from .resilience import (
    ERROR_LABEL,
    SYSTEM_CLOCK,
    BreakerOpenError,
    CircuitBreaker,
    Clock,
    MonotonicClock,
    ResilienceStats,
    ResilientCaller,
    ResilientLXPServer,
    RetryPolicy,
    error_placeholder,
    is_error_label,
    resilient_server,
)

__all__ = [
    "EngineConfig", "ConfigError", "validate_granularity",
    "MISS", "CacheStats", "ManagedCache", "CacheManager",
    "ExecutionContext", "Tracer", "TraceEvent", "Counters",
    "Clock", "MonotonicClock", "SYSTEM_CLOCK",
    "RetryPolicy", "BreakerOpenError", "CircuitBreaker",
    "ResilienceStats", "ResilientCaller",
    "ERROR_LABEL", "error_placeholder", "is_error_label",
    "ResilientLXPServer", "resilient_server",
    "SpanNode", "SpanForest", "build_span_tree",
    "export_jsonl", "export_chrome_trace",
    "EVENT_NAMES", "contract_violations",
    "FlightRecorder",
    "load_jsonl", "merge_traces", "sample_trace",
]
