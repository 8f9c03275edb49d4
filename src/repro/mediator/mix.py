"""The MIX mediator: catalog, views, query processing (paper Fig. 1).

Query processing follows Section 3's three phases:

1. **Preprocessing** -- parse the XMAS query, compose it with any view
   definitions it references (algebraic inlining), translate to the
   initial algebra plan.
2. **Query rewriting** -- optimize the plan for navigational
   complexity.
3. **Query evaluation** -- build the tree of lazy mediators over the
   registered sources and hand the client a root handle; nothing else
   happens until the client navigates.

Sources can be registered three ways, mirroring Figure 1:

* a ready :class:`NavigableDocument` (``register_source``);
* an LXP wrapper, automatically stacked under the generic buffer
  component (``register_wrapper``);
* another mediator's view (``register_view`` + queries that name it) --
  views compose algebraically by default, or stack as navigable
  sources via ``as_source=True``.

Configuration lives in one frozen :class:`~repro.runtime.config.
EngineConfig`; every ``prepare()`` creates a fresh
:class:`~repro.runtime.context.ExecutionContext` (config + budgeted
cache registry + tracing hooks) and threads it down the whole operator
tower.  With ``config.pushdown`` on, ``prepare()`` additionally runs
the :mod:`repro.pushdown` compiler pass: maximal single-source
subplans whose wrappers accept the negotiation execute as one native
request each instead of navigation-by-navigation.

Phases 1 and 2 depend only on the query text and the catalog, so a
mediator keeps their result -- ``(initial plan, optimized plan,
trace)`` -- per query text (:data:`PREPARED_PLANS`): a daemon serving
many short sessions of one query parses and optimizes it once.
Phase 3, and everything that holds per-evaluation state, is built
afresh by every ``prepare()``.
"""

from __future__ import annotations

import warnings
from typing import Dict, List, Optional, Tuple, Union

from ..algebra.eager import evaluate
from ..algebra.operators import (GetDescendants, Join, Operator, Select,
                                 Source, TupleDestroy, plan_depth,
                                 walk_plan)
from ..algebra.predicates import TruePredicate
from ..buffer.lxp import LXPServer
from ..client.element import XMLElement, open_virtual_document
from ..lazy.build import build_virtual_document
from ..lazy.document import VirtualDocument
from ..navigation.counting import CountingDocument, NavCounters, SourceMeter
from ..navigation.interface import NavigableDocument, materialize
from ..rewriter.optimizer import OptimizationTrace, optimize
from ..runtime.config import EngineConfig
from ..runtime.context import ExecutionContext, Tracer
from ..runtime.resilience import Clock
from ..wrappers.base import source_stack
from ..xmas.ast import XMASQuery
from ..xmas.compose import inline_views
from ..xmas.parser import parse_xmas
from ..xmas.translate import MAX_PLAN_DEPTH, translate
from ..xtree.path import MAX_CONDITIONS
from ..xtree.tree import Tree

__all__ = ["MIXMediator", "MediatorError", "MediatorWarning",
           "QueryResult", "PREPARED_PLANS"]

#: How many query texts a mediator keeps prepared plans for; past it
#: the oldest entry is dropped, so a peer sending ever new texts
#: cannot grow a long-lived mediator.
PREPARED_PLANS = 32


from ..errors import ReproError
from ..runtime.locks import make_lock


class MediatorError(ReproError):
    """Raised for catalog problems (unknown sources, name clashes) and
    for a query that its views compose past ``MAX_CONDITIONS``."""


class MediatorWarning(UserWarning):
    """Emitted for recoverable mediator anomalies (e.g. the optimizer
    returning a plan with a non-tupleDestroy root, which is discarded
    in favor of the initial plan)."""


def _conditions(plan: Operator) -> int:
    """The WHERE conditions a plan holds, counted as the parser counts
    one text's: a getDescendants per path condition, a select or a
    non-product join per comparison."""
    return sum(1 for node in walk_plan(plan)
               if isinstance(node, (GetDescendants, Select))
               or (isinstance(node, Join)
                   and not isinstance(node.predicate, TruePredicate)))


class QueryResult:
    """Everything the mediator knows about one processed query,
    including its :class:`ExecutionContext` (config, caches, tracing
    and the query's own source navigation counters)."""

    def __init__(self, mediator: "MIXMediator", plan: TupleDestroy,
                 initial_plan: TupleDestroy,
                 trace: Optional[OptimizationTrace],
                 document: VirtualDocument,
                 context: Optional[ExecutionContext] = None,
                 executed_plan: Optional[Operator] = None,
                 pushdown_decisions: Tuple = ()):
        self.mediator = mediator
        self.plan = plan
        self.initial_plan = initial_plan
        self.optimization_trace = trace
        self.document = document
        self.context = (context if context is not None
                        else ExecutionContext.create())
        self._root: Optional[XMLElement] = None
        #: the static AnalysisReport when prepare() ran with analysis
        self.analysis = None
        #: the plan that actually executes: ``plan`` with accepted
        #: chains spliced as PushedSource leaves (== ``plan`` when the
        #: pushdown pass is off or pushed nothing)
        self.executed_plan = executed_plan if executed_plan is not None \
            else plan
        #: the pushdown pass's PushdownDecision records (empty when
        #: the pass did not run)
        self.pushdown_decisions = tuple(pushdown_decisions)

    @property
    def root(self) -> XMLElement:
        """The client handle to the virtual answer (free of source
        access until navigated)."""
        if self._root is None:
            self._root = open_virtual_document(self.document)
        return self._root

    def materialize(self) -> Tree:
        """Navigate the whole virtual answer into memory."""
        return materialize(self.document)

    def connect_remote(self, **kwargs):
        """Open a remote client session onto this query's virtual
        answer (Section 5's mediator/client split).

        Granularity and channel-cost defaults come from the engine
        config; the channel's stats register with the query context,
        so :meth:`stats` covers the wire traffic.  Returns the
        client-side root :class:`XMLElement` and the channel stats.
        """
        from ..client.remote import connect_remote
        kwargs.setdefault("clock", self.mediator.clock)
        return connect_remote(self.document, context=self.context,
                              **kwargs)

    # -- aggregated telemetry ---------------------------------------------
    def stats(self) -> dict:
        """One aggregated report for this query: the source navigations
        its own operators made, per-cache hit/miss/eviction counts,
        and -- for remote sessions -- channel messages/bytes.
        """
        report = self.context.stats_report()
        per_source = {}
        total = NavCounters()
        for document, counters in sorted(
                self.context.navigations.items(),
                key=lambda item: item[0].name):
            per_source[document.name] = counters.as_dict()
            total = total + counters
        report["source_navigations"] = {
            "total": total.total,
            "per_source": per_source,
            "by_command": total.as_dict(),
        }
        if self.pushdown_decisions:
            report["pushdown"] = {
                "pushed": sum(1 for d in self.pushdown_decisions
                              if d.pushed),
                "decisions": [d.as_dict()
                              for d in self.pushdown_decisions],
            }
        fc_decisions = self.mediator.fragcache_decisions
        if fc_decisions:
            # Merge with the store counters the context contributed
            # (when the store was registered).
            section = dict(report.get("fragcache") or {})
            section["cached_sources"] = sum(
                1 for d in fc_decisions if d.cached)
            section["decisions"] = [d.as_dict()
                                    for d in fc_decisions]
            report["fragcache"] = section
        return report

    def profile(self):
        """Re-execute this query's plan once under full observation
        and return the :class:`~repro.navigation.profiler.
        NavigationProfile`.

        Builds a second virtual document over the same catalog with
        ``observe_operators`` forced on (the original document -- and
        its caches -- stay untouched), subscribes a collector to the
        session tracer, and materializes the whole answer.  The
        profile reports per-operator and whole-view client->source
        navigation amplification from the resulting span tree.
        """
        from ..navigation.profiler import NavigationProfile
        events = []
        tracer = self.mediator.tracer
        context = self.mediator._new_context(
            self.mediator.config.replace(observe_operators=True))
        document = build_virtual_document(
            self.plan, self.mediator._resolver(), context)
        with tracer.subscribed(events.append):
            materialize(document)
        return NavigationProfile.from_events(events)

    def explain(self, analyze: bool = False,
                lint: bool = False) -> str:
        """A human-readable report: rewritten plan, rules fired,
        per-node browsability classification, and the aggregated
        runtime view (source navigations, cache behavior, wire
        traffic).

        With ``analyze=True``, additionally runs the query once under
        full observation (see :meth:`profile`) and appends the
        empirical browsability profile -- observed client->source
        amplification per operator and for the whole view.

        With ``lint=True``, appends the *static* diagnostics: the
        :class:`~repro.analysis.findings.AnalysisReport` attached by
        ``prepare(..., analyze=...)``, or a fresh analysis of this
        plan when none was requested at prepare time.
        """
        from ..rewriter.analyzer import classify_plan, explain_plan
        lines = ["plan:"]
        lines.append(self.plan.pretty())
        if self.optimization_trace is not None:
            fired = self.optimization_trace.applied
            lines.append("")
            lines.append("rewrites: %s"
                         % (", ".join(fired) if fired else "none"))
        lines.append("")
        lines.append("browsability: %s" % classify_plan(self.plan))
        lines.append("")
        lines.append(explain_plan(self.plan))
        if self.pushdown_decisions:
            lines.append("")
            lines.append("pushdown:")
            for decision in self.pushdown_decisions:
                lines.append("  %-6s %s: %s"
                             % ("pushed" if decision.pushed
                                else "kept", decision.url,
                                decision.detail))
        fc_decisions = self.mediator.fragcache_decisions
        if fc_decisions:
            lines.append("")
            lines.append("fragment cache:")
            for decision in fc_decisions:
                lines.append("  %-6s %s: %s"
                             % ("cached" if decision.cached
                                else "kept", decision.url,
                                decision.detail))
        lines.append("")
        lines.extend(self._stats_lines())
        if lint:
            report = self.analysis
            if report is None:
                from ..analysis import analyze_plan
                report = analyze_plan(
                    self.plan, config=self.mediator.config,
                    schemas=dict(self.mediator._schemas))
            lines.append("")
            lines.append("static diagnostics:")
            lines.extend("  " + line
                         for line in report.summary().splitlines())
        if analyze:
            profile = self.profile()
            lines.append("")
            lines.append("browsability profile (observed):")
            lines.extend("  " + line
                         for line in profile.summary().splitlines())
        return "\n".join(lines)

    def _stats_lines(self) -> list:
        stats = self.stats()
        caches = stats["caches"]
        lines = ["runtime:"]
        lines.append("  cache policy: %s, budget=%s"
                     % ("on" if caches["enabled"] else "off",
                        caches["budget"]))
        navigations = stats["source_navigations"]
        lines.append("  source navigations: %d" % navigations["total"])
        for name, counts in sorted(caches["caches"].items()):
            lines.append(
                "  cache %-22s hits=%-6d misses=%-6d evictions=%d"
                % (name, counts["hits"], counts["misses"],
                   counts["evictions"]))
        channels = stats.get("channels")
        if channels:
            lines.append("  channel: %d messages, %d bytes"
                         % (channels["messages"],
                            channels["bytes_transferred"]))
        resilience = stats.get("resilience")
        if resilience:
            lines.append(
                "  resilience: %d retries, %d giveups, %d degraded, "
                "%d breaker opens"
                % (resilience["retries"], resilience["giveups"],
                   resilience["degraded"],
                   resilience["breaker_opens"]))
        fragcache = stats.get("fragcache")
        if fragcache and "hits" in fragcache:
            lines.append(
                "  fragcache: %d hits, %d misses, %d invalidations, "
                "%d view adoptions"
                % (fragcache["hits"], fragcache["misses"],
                   fragcache["invalidations"],
                   fragcache["view_adoptions"]))
        return lines


class MIXMediator:
    """A MIX mediator instance over a catalog of sources and views.

    Configure it with one :class:`EngineConfig`::

        MIXMediator(EngineConfig(cache_budget=256, use_sigma=True))
    """

    def __init__(self, config: Optional[EngineConfig] = None,
                 tracer: Optional[Tracer] = None,
                 clock: Optional[Clock] = None):
        if config is None:
            config = EngineConfig()
        elif not isinstance(config, EngineConfig):
            raise TypeError(
                "config must be an EngineConfig, got %r (the pre-"
                "runtime boolean keywords were removed; pass "
                "MIXMediator(EngineConfig(...)))" % (config,))
        self.config = config
        self.tracer = tracer if tracer is not None else Tracer()
        if config.trace_sample_rate < 1.0 and self.tracer.configured:
            # Head-based sampling: one deterministic verdict per
            # trace id, decided before any span is minted, so the
            # sampled-out path never pays span-bookkeeping cost.
            self.tracer.ensure_trace_id()
            self.tracer.sample(config.trace_sample_rate)
        #: time source for retry backoff and breaker windows (tests
        #: inject a fake clock so nothing really sleeps)
        self.clock = clock
        #: session-level context: buffers registered at source
        #: registration time report through it
        self.runtime = ExecutionContext(config, tracer=self.tracer)
        self._documents: Dict[str, NavigableDocument] = {}
        self._meters: Dict[str, SourceMeter] = {}
        self._views: Dict[str, TupleDestroy] = {}
        #: raw (pre-resilience, pre-buffer) LXP servers advertising
        #: the push capability, keyed by source name -- what the
        #: pushdown compiler pass negotiates with
        self._pushables: Dict[str, LXPServer] = {}
        #: source schema knowledge for the static analyzer (sample
        #: Tree / InferredDTD / SchemaGraph, see register_schema)
        self._schemas: Dict[str, object] = {}
        #: one FragcacheDecision per wrapper registered while
        #: ``config.fragment_cache`` is on (empty otherwise): the
        #: compile-time admissibility record, surfaced through
        #: ``QueryResult.stats()``/``explain()``
        self._fragcache_decisions: List = []
        #: serializes catalog registration: concurrent sessions may
        #: register sources on a shared mediator, and the name-clash
        #: check must be atomic with the insert
        self._catalog_lock = make_lock("mediator.catalog")
        #: query text -> (initial plan, optimized plan, trace), oldest
        #: first; read and written under the catalog lock, never held
        #: across parsing or optimizing (see :meth:`_processed`)
        self._prepared: Dict[str, tuple] = {}

    def _new_context(self, config: Optional[EngineConfig] = None
                     ) -> ExecutionContext:
        """A fresh per-query execution context (shared tracer), seeded
        with the session-level wrapper registrations so per-query
        ``stats()`` reports cover buffer and resilience counters, and
        attached to every source meter so the query counts its own
        source navigations."""
        context = ExecutionContext(config or self.config,
                                   tracer=self.tracer)
        context.adopt(self.runtime)
        with self._catalog_lock:
            meters = list(self._meters.values())
        for meter in meters:
            context.navigations[meter.document] = meter.counters_for(context)
        return context

    # -- catalog -----------------------------------------------------------
    def register_source(self, name: str,
                        document: NavigableDocument) -> None:
        """Register a navigable source under ``name``.

        Its navigation statistics are available from :attr:`meters`.
        The lazy plans of this mediator's queries count their own
        navigations (no proxy on their path); the catalog hands every
        other path -- the eager baseline, say -- a counting proxy.
        """
        document = CountingDocument(document, name=name,
                                    tracer=self.tracer)
        with self._catalog_lock:
            self._check_free(name)
            meter = self._meters[name] = SourceMeter(document)
            self._documents[name] = document
            self.runtime.navigations[document] = meter
        self.tracer.emit("mediator", "register_source", name=name)

    def register_schema(self, name: str, schema) -> None:
        """Declare what source ``name``'s documents look like.

        ``schema`` may be a sample :class:`~repro.xtree.tree.Tree`, an
        :class:`~repro.xmas.dtd.InferredDTD`, or a ready
        :class:`~repro.analysis.schema.SchemaGraph`.  Schema knowledge
        is only consulted by the static analyzer
        (``prepare(..., analyze=...)``): it enables the
        unsatisfiable-path / typo / dead-join checks for this source.
        Execution never reads it.
        """
        with self._catalog_lock:
            self._schemas[name] = schema

    def register_wrapper(self, name: str, server: LXPServer) -> None:
        """Register an LXP wrapper under the standard seam stack
        (:func:`~repro.wrappers.base.source_stack`): the fragment
        cache for admissible wrappers when ``config.fragment_cache``
        is on, retry/breaker/degradation when the config's resilience
        is active, and the generic buffer on top -- each layer's
        counters surfacing through ``QueryResult.stats()``.

        A wrapper advertising the push capability (``push_compile``,
        see :mod:`repro.wrappers.base`) is additionally recorded for
        the pushdown compiler pass; with ``config.pushdown`` off the
        record is never consulted.
        """
        buffer, decision = source_stack(server, name, self.runtime,
                                        clock=self.clock)
        if decision is not None:
            with self._catalog_lock:
                self._fragcache_decisions.append(decision)
        self.register_source(name, buffer)
        if hasattr(server, "push_compile"):
            with self._catalog_lock:
                self._pushables[name] = server

    def register_view(self, name: str,
                      query: Union[str, XMASQuery, TupleDestroy],
                      as_source: bool = False) -> None:
        """Register a named XMAS view.

        ``as_source=False`` (default): queries naming the view compose
        with it algebraically (one optimizable plan).
        ``as_source=True``: the view is evaluated as its own lazy
        mediator tower and exposed like a wrapped source (Figure 1
        stacking).
        """
        plan = self._plan_of(query)
        if as_source:
            document = build_virtual_document(
                plan, self._resolver(), self._new_context())
            with self._catalog_lock:
                self._check_free(name)
                self._documents[name] = document
        else:
            with self._catalog_lock:
                self._check_free(name)
                self._views[name] = plan

    def _check_free(self, name: str) -> None:
        if name in self._documents or name in self._views:
            raise MediatorError("name %r is already registered" % name)

    @property
    def fragcache_decisions(self) -> Tuple:
        """The admissibility decisions of every wrapper registered
        under ``config.fragment_cache`` (empty when the cache is
        off)."""
        with self._catalog_lock:
            return tuple(self._fragcache_decisions)

    @property
    def meters(self) -> Dict[str, SourceMeter]:
        """Per-source navigation meters: each sums every query's
        navigations of its source."""
        return self._meters

    def total_source_navigations(self) -> int:
        return sum(m.total for m in self._meters.values())

    def reset_meters(self) -> None:
        for meter in self._meters.values():
            meter.reset()

    # -- query processing ---------------------------------------------------
    def _plan_of(self, query: Union[str, XMASQuery, TupleDestroy]
                 ) -> TupleDestroy:
        if isinstance(query, str):
            query = parse_xmas(query)
        if isinstance(query, XMASQuery):
            return translate(query)
        # A text is bounded by its parser; a plan is bounded here,
        # before any pass recurses over it.
        depth = plan_depth(query)
        if depth > MAX_PLAN_DEPTH:
            raise MediatorError(
                "the plan is %d operators deep, more than the %d any "
                "query text translates to" % (depth, MAX_PLAN_DEPTH))
        return query

    def _initial_plan(self, query: Union[str, XMASQuery, TupleDestroy]
                      ) -> TupleDestroy:
        """The plan a query starts from, lazy or eager: parsed and
        translated, registered views inlined, every source it names
        checked against the catalog."""
        initial = self._plan_of(query)
        if self._views:
            initial = inline_views(initial, self._views)
            # Each text is held to MAX_CONDITIONS by the parser; the
            # plan inlining composes is held to it too, since
            # navigation recurses over all of its conditions at once.
            conditions = _conditions(initial)
            if conditions > MAX_CONDITIONS:
                raise MediatorError(
                    "the query composed with its views holds %d "
                    "conditions, more than %d"
                    % (conditions, MAX_CONDITIONS))
        self._validate_sources(initial)
        return initial

    def _resolver(self):
        documents = self._documents

        def resolve(url: str) -> NavigableDocument:
            try:
                return documents[url]
            except KeyError:
                raise MediatorError(
                    "no source registered for %r (have: %s)"
                    % (url, ", ".join(sorted(documents)) or "none")
                ) from None

        return resolve

    def prepare(self, query: Union[str, XMASQuery, TupleDestroy],
                analyze: Optional[str] = None) -> QueryResult:
        """Run preprocessing + rewriting and build the lazy plan.

        Returns a QueryResult whose ``root`` is the virtual answer
        handle; no source is touched yet.  The result carries a fresh
        :class:`ExecutionContext` holding this query's caches and
        tracing hooks.

        ``analyze`` runs the static plan analyzer over the plan that
        will execute (default: ``config.static_analysis``):

        * ``"off"`` -- skip (the analyzer is not even imported);
        * ``"static"`` -- attach the :class:`~repro.analysis.findings.
          AnalysisReport` as ``result.analysis`` and raise
          :class:`~repro.errors.StaticAnalysisError` on *error*
          findings;
        * ``"strict"`` -- additionally raise on warnings.
        """
        context = self._new_context()
        context.trace("mediator", "prepare.begin")
        initial, plan, trace = self._processed(query)
        if self.config.optimize_plans:
            context.trace("mediator", "optimize",
                          applied=tuple(trace.applied) if trace else ())
            if not isinstance(plan, TupleDestroy):
                # The optimizer must preserve the tupleDestroy root; a
                # different root means a rewrite rule misfired.  Fall
                # back to the initial plan, but loudly: silently
                # swallowing the anomaly hid real rule bugs.
                warnings.warn(
                    "optimizer returned a %s-rooted plan instead of "
                    "tupleDestroy; discarding the rewrite and using "
                    "the initial plan"
                    % type(plan).__name__,
                    MediatorWarning, stacklevel=2)
                context.trace("mediator", "optimizer.discarded_result",
                              got=type(plan).__name__)
                plan = initial
        report = self._analyze_plan(plan, analyze, context)
        executed: Operator = plan
        decisions: List = []
        if self.config.pushdown and self._pushables:
            from ..pushdown.compiler import compile_pushdown
            with context.span("pushdown", "compile"):
                executed, decisions = compile_pushdown(
                    plan, dict(self._pushables), context)
        document = build_virtual_document(
            executed, self._resolver(), context)
        context.trace("mediator", "prepare.end")
        result = QueryResult(self, plan, initial, trace, document,
                             context=context, executed_plan=executed,
                             pushdown_decisions=tuple(decisions))
        result.analysis = report
        return result

    def _processed(self, query: Union[str, XMASQuery, TupleDestroy]
                   ) -> Tuple[TupleDestroy, Operator,
                              Optional[OptimizationTrace]]:
        """Phases 1 and 2: ``(initial plan, optimized plan, trace)``.

        A query text seen before is answered from :attr:`_prepared`
        without parsing, inlining, validating or optimizing; a result
        is stored only once all of that succeeded.  An entry cannot go
        stale: the catalog only grows, :meth:`_check_free` forbids
        rebinding a name and the config is frozen -- a future
        unregister must clear the table.  Entries are shared by every
        query prepared from them and never written: rewrites copy on
        write, and each ``prepare()`` builds its own lazy operators.
        """
        text = query if isinstance(query, str) else None
        with self._catalog_lock:
            entry = self._prepared.get(text) if text is not None else None
        if entry is None:
            initial = self._initial_plan(query)
            plan, trace = (optimize(initial, hybrid=self.config.hybrid)
                           if self.config.optimize_plans
                           else (initial, None))
            entry = (initial, plan, trace)
            if text is not None:
                with self._catalog_lock:
                    # of two racing misses the first stored wins, so
                    # both share one plan
                    entry = self._prepared.setdefault(text, entry)
                    if len(self._prepared) > PREPARED_PLANS:
                        del self._prepared[next(iter(self._prepared))]
        return entry

    def _analyze_plan(self, plan: TupleDestroy,
                      analyze: Optional[str],
                      context: ExecutionContext):
        """Run the static analyzer when requested; returns the report
        (or None when analysis is off).  Raises StaticAnalysisError
        when the mode rejects the plan.  The import is deferred so the
        default path never loads the analysis package."""
        mode = analyze if analyze is not None \
            else self.config.static_analysis
        if mode == "off":
            return None
        if mode not in ("static", "strict"):
            raise MediatorError(
                "analyze must be 'off', 'static' or 'strict', not %r"
                % (mode,))
        from ..analysis import analyze_plan
        from ..errors import StaticAnalysisError
        report = analyze_plan(plan, config=self.config,
                              schemas=dict(self._schemas))
        context.trace("mediator", "static_analysis",
                      verdict=report.verdict,
                      errors=len(report.errors),
                      warnings=len(report.warnings))
        rejected = report.errors or (mode == "strict"
                                     and report.warnings)
        if rejected:
            raise StaticAnalysisError(
                "static analysis rejected the plan (%d error(s), "
                "%d warning(s)):\n%s"
                % (len(report.errors), len(report.warnings),
                   report.summary()),
                report=report)
        return report

    def query(self, query: Union[str, XMASQuery, TupleDestroy],
              analyze: Optional[str] = None) -> XMLElement:
        """The client entry point: an XMLElement root handle over the
        virtual answer document.

        ``analyze="static"`` vets the plan with the static analyzer
        first (see :meth:`prepare`); hostile or broken views are
        rejected before any source is touched.
        """
        return self.prepare(query, analyze=analyze).root

    def query_eager(self, query: Union[str, XMASQuery, TupleDestroy]
                    ) -> Tree:
        """The materializing baseline: evaluate the full answer at
        once (what "current mediator systems" do, per the paper)."""
        initial = self._initial_plan(query)

        def tree_of(url: str) -> Tree:
            return materialize(self._resolver()(url))

        return evaluate(initial, tree_of)

    def _validate_sources(self, plan: Operator) -> None:
        for node in walk_plan(plan):
            if isinstance(node, Source) \
                    and node.url not in self._documents:
                raise MediatorError(
                    "query references unregistered source %r (have: %s)"
                    % (node.url,
                       ", ".join(sorted(self._documents)) or "none"))
