"""The engine configuration: one frozen object instead of booleans.

Before this subsystem existed, cross-cutting evaluator settings
(``cache_enabled``, ``use_sigma``, ...) were threaded as positional
booleans through the mediator, the plan builder, and every lazy
operator constructor.  :class:`EngineConfig` replaces that plumbing
with a single immutable value that the :class:`~repro.runtime.context.
ExecutionContext` carries down the whole tower (client -> mediator ->
lazy operators -> buffer), the shape mediator stacks such as XLive use
for evaluator configuration.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["EngineConfig", "ConfigError", "validate_granularity"]


from ..errors import ReproError


class ConfigError(ReproError, ValueError):
    """Raised for invalid engine configurations.

    Also a ``ValueError``: constructor-level validation failures (bad
    chunk sizes and the like) predate this class and were plain
    ValueErrors; keeping the subclassing lets old handlers keep
    working.
    """


def validate_granularity(chunk_size: Optional[int] = None,
                         depth: Optional[int] = None,
                         ) -> Tuple[int, int]:
    """The one positivity check for fragment granularity.

    Every LXP exporter (the source-side wrappers and the
    mediator->client :class:`~repro.client.remote.NavigableLXPServer`)
    takes a ``chunk_size``/``depth`` pair; they all validate through
    here instead of hand-rolling the checks.  ``None`` defaults the
    value from :class:`EngineConfig`'s field default, so the engine
    config stays the single source of granularity defaults.

    Returns the validated ``(chunk_size, depth)`` pair.
    """
    if chunk_size is None:
        chunk_size = EngineConfig.chunk_size
    if depth is None:
        depth = EngineConfig.depth
    if chunk_size <= 0:
        raise ConfigError("chunk_size must be positive")
    if depth <= 0:
        raise ConfigError("depth must be positive")
    return chunk_size, depth


@dataclass(frozen=True)
class EngineConfig:
    """Immutable evaluator configuration for one mediator session.

    Instances are frozen: derive variants with :meth:`replace`.

    Cache policy
        ``cache_enabled`` toggles the paper's operator caches (the E7
        ablation switch); ``cache_budget`` bounds how many *evictable*
        cached entries may live at once across all operator caches of
        one query (None = unbounded).  Eviction is semantically safe:
        every evictable entry is a memo re-derivable from structured
        node-ids (paper Fig. 5), so a bounded budget changes costs,
        never answers.

    Navigation pushdown
        ``use_sigma`` lets getDescendants replace sibling scans by
        ``select(sigma)`` commands pushed to capable sources (paper
        Example 1).

    Optimizer
        ``optimize_plans`` runs the rewriting phase; ``hybrid`` lets it
        insert intermediate eager steps above unbrowsable subplans
        (Section 6).

    Buffer / channel granularity defaults
        ``chunk_size``/``depth`` are the default fragment granularity
        for wrappers and the mediator->client fragment channel;
        ``prefetch`` is the default buffer lookahead;
        ``latency_ms``/``ms_per_kb`` parameterize the simulated remote
        channel.

    Pipelining
        ``batch_navigations`` turns on LXP pipelining: a demand fill
        ships as one *batched* round trip that also carries up to
        ``prefetch`` speculative follow-up fills, collapsing a forward
        scan's chain of round trips.

    Fault tolerance
        ``retry_max_attempts`` is the total number of tries per I/O
        operation (1 = no retries), spaced by
        :class:`~repro.runtime.resilience.RetryPolicy`'s exponential
        backoff with deterministic jitter; ``retry_deadline_ms``
        bounds the *cumulative* time one operation may spend
        retrying.  ``breaker_threshold`` consecutive failures open a
        per-source circuit breaker that fails fast until
        ``breaker_reset_ms`` has elapsed (then one half-open probe
        decides).  ``on_source_failure`` picks what an
        exhausted failure does: ``"fail"`` aborts the query;
        ``"degrade"`` splices a marked ``<mix:error source=...>``
        placeholder into the virtual answer and lets sibling sources
        continue.  Resilience wrapping only engages when
        :attr:`resilience_active` is true, so the default healthy path
        is byte-for-byte the PR 1 code path.

    Observability
        Metric series need no knob: they are read from the counters
        when scraped (``ExecutionContext.metrics_snapshot``).
        ``observe_operators`` wraps every lazy operator in a span-emitting proxy so traces
        show per-operator navigation amplification -- the expensive
        half of tracing, and the input to the browsability profiler;
        off by default.

    Static analysis
        ``static_analysis`` gates the compile-time plan analyzer in
        ``prepare()``: ``"off"`` (the default) never even imports it,
        ``"static"`` runs it and rejects plans with *error* findings
        (unsatisfiable paths, joins that can never match),
        ``"strict"`` also rejects on warnings (unbrowsable views,
        unbounded amplification).  The per-call ``analyze=`` argument
        of ``prepare``/``query`` overrides this default.

    Source-native pushdown
        ``pushdown`` lets ``prepare()`` compile maximal single-source
        subplans into one native request each (a merged SQL SELECT, a
        page-chain drain, an extent path query, an XPath-style scan)
        negotiated with the registered wrapper.  Answers are
        byte-identical either way -- the mediator replays the original
        chain over the pushed result -- but source navigations for a
        pushed chain collapse to a single native round trip
        (experiment E16).  Off by default: the lazy navigation-driven
        path of the paper stays the reference behavior.

    Cross-session fragment caching
        ``fragment_cache`` routes every admissible wrapper's fills
        through the process-wide
        :class:`~repro.runtime.fragcache.FragmentStore`: session N
        answers ``d``/``r``/``f`` demands from fragments session N-1
        already paid sources for, keyed by ``(view, region)`` and
        tagged with the source's snapshot version (stale entries are
        invalidated, never served).  A wrapper is admissible only when
        it advertises ``snapshot_version()``, declares no side
        effects, and its export is browsable under Definition 2 --
        every registered wrapper gets a decision record in
        ``stats()``/``explain()``.  Off by default: the module is not
        even imported and every session re-navigates from scratch, as
        in the paper.

    Session server (``serve_*``)
        Hardening knobs for the socket-facing mediator daemon
        (:class:`~repro.server.daemon.MediatorServer`; the in-process
        paths never read them).  ``serve_host``/``serve_port`` are the
        bind address (port 0 = ephemeral); ``serve_max_sessions`` is
        the admission-control ceiling on concurrently open sessions
        (excess connections receive a typed ``mix:busy`` reply and are
        closed).  ``serve_idle_timeout_ms`` kills sessions whose
        client stops talking mid-dialogue (the slow-loris defense); ``serve_send_timeout_ms`` kills sessions
        whose client stops *reading* (backpressure on stalled
        readers); ``serve_request_deadline_ms`` bounds the server-side
        navigation work of one request (overruns answer
        ``mix:deadline`` and kill the session).
        ``serve_session_max_fills`` / ``serve_session_max_bytes``
        budget how much navigation / shipped-fragment volume one
        session may consume before ``mix:budget`` cuts it off (None =
        unbudgeted).  ``serve_max_frame_bytes`` caps a single wire
        frame in either direction;  ``serve_send_buffer_bytes`` clamps
        the kernel send buffer of accepted connections (None = kernel
        default) so backpressure from a non-reading client surfaces at
        a predictable volume; ``serve_drain_timeout_ms`` is how long a
        SIGTERM drain waits for in-flight sessions before
        force-closing the stragglers.

    Distributed tracing & live telemetry
        ``trace_sample_rate`` is the fraction of traces actually
        recorded when tracing is armed (a recording tracer or
        subscribers): the decision is a deterministic hash of the
        trace id (:func:`~repro.runtime.observability.sample_trace`),
        so the same trace id samples the same way in every process,
        and the sampled bit travels on the LXP wire so the daemon
        skips ``server.request`` spans for unsampled traces.  1.0
        (the default) records everything; the default-off path (no
        tracer armed) never consults it.  ``slow_request_ms`` is the
        daemon's slow-request threshold: requests that take at least
        this long are logged through the always-on flight recorder
        (and as ``server.slow_request`` events when tracing); None
        disables the log.  ``serve_flight_recorder_events`` bounds
        the daemon's flight-recorder ring (the last N operational
        entries kept for incident dumps); ``serve_incident_dir``
        names a directory where each session kill / drain dumps the
        ring as a JSONL incident file (None keeps incident snapshots
        in memory only).
    """

    optimize_plans: bool = True
    hybrid: bool = False
    cache_enabled: bool = True
    cache_budget: Optional[int] = None
    use_sigma: bool = False
    chunk_size: int = 10
    depth: int = 3
    prefetch: int = 0
    batch_navigations: bool = False
    latency_ms: float = 20.0
    ms_per_kb: float = 2.0
    retry_max_attempts: int = 1
    retry_deadline_ms: Optional[float] = None
    breaker_threshold: int = 5
    breaker_reset_ms: float = 30000.0
    on_source_failure: str = "fail"
    observe_operators: bool = False
    static_analysis: str = "off"
    pushdown: bool = False
    fragment_cache: bool = False
    serve_host: str = "127.0.0.1"
    serve_port: int = 0
    serve_max_sessions: int = 64
    serve_idle_timeout_ms: float = 30000.0
    serve_send_timeout_ms: float = 5000.0
    serve_request_deadline_ms: Optional[float] = None
    serve_session_max_fills: Optional[int] = None
    serve_session_max_bytes: Optional[int] = None
    serve_max_frame_bytes: int = 1 << 20
    serve_send_buffer_bytes: Optional[int] = None
    serve_drain_timeout_ms: float = 5000.0
    trace_sample_rate: float = 1.0
    slow_request_ms: Optional[float] = None
    serve_flight_recorder_events: int = 256
    serve_incident_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.cache_budget is not None and self.cache_budget < 0:
            raise ConfigError("cache_budget must be >= 0 or None")
        validate_granularity(self.chunk_size, self.depth)
        if self.prefetch < 0:
            raise ConfigError("prefetch must be >= 0")
        if self.latency_ms < 0 or self.ms_per_kb < 0:
            raise ConfigError("channel costs must be >= 0")
        if self.retry_max_attempts < 1:
            raise ConfigError("retry_max_attempts must be >= 1")
        if self.retry_deadline_ms is not None \
                and self.retry_deadline_ms <= 0:
            raise ConfigError("retry_deadline_ms must be positive "
                              "or None")
        if self.breaker_threshold < 1:
            raise ConfigError("breaker_threshold must be >= 1")
        if self.breaker_reset_ms < 0:
            raise ConfigError("breaker_reset_ms must be >= 0")
        if self.on_source_failure not in ("fail", "degrade"):
            raise ConfigError(
                "on_source_failure must be 'fail' or 'degrade', not %r"
                % (self.on_source_failure,))
        if self.static_analysis not in ("off", "static", "strict"):
            raise ConfigError(
                "static_analysis must be 'off', 'static' or 'strict', "
                "not %r" % (self.static_analysis,))
        if not self.serve_host:
            raise ConfigError("serve_host must be non-empty")
        if not (0 <= self.serve_port <= 65535):
            raise ConfigError("serve_port must be in [0, 65535]")
        if self.serve_max_sessions < 1:
            raise ConfigError("serve_max_sessions must be >= 1")
        if self.serve_idle_timeout_ms <= 0:
            raise ConfigError("serve_idle_timeout_ms must be positive")
        if self.serve_send_timeout_ms <= 0:
            raise ConfigError("serve_send_timeout_ms must be positive")
        if self.serve_request_deadline_ms is not None \
                and self.serve_request_deadline_ms <= 0:
            raise ConfigError(
                "serve_request_deadline_ms must be positive or None")
        if self.serve_session_max_fills is not None \
                and self.serve_session_max_fills < 1:
            raise ConfigError(
                "serve_session_max_fills must be >= 1 or None")
        if self.serve_session_max_bytes is not None \
                and self.serve_session_max_bytes < 1:
            raise ConfigError(
                "serve_session_max_bytes must be >= 1 or None")
        if self.serve_max_frame_bytes < 64:
            raise ConfigError("serve_max_frame_bytes must be >= 64")
        if self.serve_send_buffer_bytes is not None \
                and self.serve_send_buffer_bytes < 1024:
            raise ConfigError(
                "serve_send_buffer_bytes must be >= 1024 or None")
        if self.serve_drain_timeout_ms < 0:
            raise ConfigError("serve_drain_timeout_ms must be >= 0")
        if not (0.0 <= self.trace_sample_rate <= 1.0):
            raise ConfigError(
                "trace_sample_rate must be in [0.0, 1.0]")
        if self.slow_request_ms is not None \
                and self.slow_request_ms < 0:
            raise ConfigError(
                "slow_request_ms must be >= 0 or None")
        if self.serve_flight_recorder_events < 1:
            raise ConfigError(
                "serve_flight_recorder_events must be >= 1")
        if self.serve_incident_dir is not None \
                and not self.serve_incident_dir:
            raise ConfigError(
                "serve_incident_dir must be non-empty or None")

    @property
    def resilience_active(self) -> bool:
        """Whether the resilience layer wraps the I/O seams at all.

        True when the configuration asks for something the plain path
        cannot deliver: retries, a retry deadline, or degrade mode.
        With the defaults this is False and no wrapping happens, so
        healthy-path performance is unchanged.
        """
        return (self.retry_max_attempts > 1
                or self.retry_deadline_ms is not None
                or self.on_source_failure != "fail")

    def replace(self, **overrides: object) -> "EngineConfig":
        """A copy with the given fields replaced (validated anew)."""
        return dataclasses.replace(self, **overrides)

    def as_dict(self) -> dict:
        """The configuration as a plain dict (for reports/JSON)."""
        return dataclasses.asdict(self)
