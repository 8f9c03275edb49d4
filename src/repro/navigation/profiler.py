"""The empirical browsability profiler (paper Definition 2, measured).

:mod:`repro.navigation.complexity` classifies a view by metering whole
runs over growing source families; the static analyzer
(:mod:`repro.rewriter.analyzer`) classifies the plan without running it
at all.  This module adds the third view: consume the *causal span
stream* of an observed run (client spans -> operator spans -> buffer
fills -> channel round trips -> source commands) and report, per
operator and for the whole view, the observed client->source
navigation amplification -- how many source commands one client
navigation provokes -- with a verdict:

``bounded``
    amplification independent of the data (Definition 2's bounded
    browsable),
``growing``
    answerable without exhausting any source list, but at
    data-dependent cost (browsable),
``unbounded-suspect``
    the cost pattern of a view that consumes some source list entirely
    (unbrowsable).

Two classification paths:

* :func:`profile_classify` *is* the source-family sweep of
  :func:`repro.navigation.complexity.classify` -- same early/late
  families, same decision rule, one implementation -- with its costs
  read off the trace's ``source`` events instead of the meters.  Since every
  metered command emits exactly one ``source`` event, the sweep
  verdict provably agrees with the meter-based classification (and,
  on the paper's examples, with the static analyzer).
* :meth:`NavigationProfile.verdict` judges a *single* observed run
  from the shape of its per-navigation cost sequence.  A single run
  cannot vary the data, so this is an honest heuristic -- useful in
  ``QueryResult.explain(analyze=True)``, authoritative never.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

from ..runtime.context import Tracer
from ..runtime.observability import build_span_tree
from ..xtree.tree import Tree
from .commands import Navigation
from .complexity import Browsability, ComplexityReport, classify
from .counting import CountingDocument
from .interface import run_navigation
from .materialized import MaterializedDocument

__all__ = [
    "OperatorProfile", "NavigationProfile",
    "profiled_cost", "profile_classify", "expected_verdict",
    "VERDICT_BOUNDED", "VERDICT_GROWING", "VERDICT_UNBOUNDED",
]

VERDICT_BOUNDED = "bounded"
VERDICT_GROWING = "growing"
VERDICT_UNBOUNDED = "unbounded-suspect"

#: Definition 2 class -> profiler verdict.  The cross-check contract:
#: a profiler sweep over the same families must land on exactly this
#: verdict for a view of the given static class.
_VERDICT_BY_CLASS = {
    Browsability.BOUNDED: VERDICT_BOUNDED,
    Browsability.BROWSABLE: VERDICT_GROWING,
    Browsability.UNBROWSABLE: VERDICT_UNBOUNDED,
}


def expected_verdict(classification: Browsability) -> str:
    """The profiler verdict a view of the given Definition 2 class
    must receive from a family sweep."""
    return _VERDICT_BY_CLASS[classification]


@dataclass
class OperatorProfile:
    """Observed behaviour of one spanned operator across a run.

    ``source_commands`` is *inclusive*: every ``source`` event in the
    subtree of one of this operator's spans counts, so a command
    reached through a chain of operators is attributed to each
    operator on the chain (amplification composes down the tower,
    which is exactly Definition 2's composition argument).
    """

    name: str
    calls: int = 0
    input_calls: int = 0       # operator spans directly below ours
    source_commands: int = 0   # source events in our spans' subtrees
    max_per_call: int = 0      # worst single call

    @property
    def amplification(self) -> float:
        """Source commands per protocol call received."""
        if self.calls == 0:
            return 0.0
        return self.source_commands / self.calls


@dataclass
class NavigationProfile:
    """The whole-view profile of one observed run."""

    client_navigations: int = 0
    #: source commands under each client span, in navigation order
    per_navigation: List[int] = field(default_factory=list)
    source_commands: int = 0   # every source event in the stream
    round_trips: int = 0       # every channel event in the stream
    operators: Dict[str, OperatorProfile] = field(default_factory=dict)
    orphan_spans: int = 0      # non-zero means broken propagation

    @property
    def amplification(self) -> float:
        """Source commands per client navigation, whole view."""
        if self.client_navigations == 0:
            return 0.0
        return self.source_commands / self.client_navigations

    @classmethod
    def from_events(cls, events: Iterable) -> "NavigationProfile":
        """Build the profile from a trace event stream (any iterable
        of :class:`~repro.runtime.context.TraceEvent`)."""
        events = list(events)
        forest = build_span_tree(events)
        profile = cls(orphan_spans=len(forest.orphans))
        profile.source_commands = sum(
            1 for e in events if e.layer == "source")
        profile.round_trips = sum(
            1 for e in events if e.layer == "channel")
        for span in forest.spans.values():
            if span.layer == "client":
                profile.client_navigations += 1
            elif span.layer == "operator":
                op = span.data.get("op", "?")
                entry = profile.operators.get(op)
                if entry is None:
                    entry = profile.operators[op] = \
                        OperatorProfile(op)
                entry.calls += 1
                entry.input_calls += sum(
                    1 for child in span.children
                    if child.layer == "operator")
                cost = len(span.leaf_events("source"))
                entry.source_commands += cost
                entry.max_per_call = max(entry.max_per_call, cost)
        # Navigation-order cost sequence: client spans in begin order.
        client_spans = [s for s in forest.spans.values()
                        if s.layer == "client"]
        client_spans.sort(key=lambda s: s.span_id)
        profile.per_navigation = [
            len(s.leaf_events("source")) for s in client_spans]
        return profile

    def verdict(self) -> str:
        """A single-run *heuristic* verdict from the per-navigation
        cost shape (see the module docstring; use
        :func:`profile_classify` for the authoritative sweep):

        * empty / flat-tailed cheap sequence -> ``bounded``;
        * one navigation dominating the whole run's cost (the
          signature of a full list scan) -> ``unbounded-suspect``;
        * otherwise -> ``growing``.
        """
        costs = self.per_navigation
        if not costs or max(costs) == 0:
            return VERDICT_BOUNDED
        peak = max(costs)
        rest = sum(costs) - peak
        if len(costs) > 1 and peak > 4 * max(rest, 1):
            return VERDICT_UNBOUNDED
        tail = costs[-3:]
        if len(set(tail)) == 1 and peak <= 4 * max(tail[0], 1):
            return VERDICT_BOUNDED
        return VERDICT_GROWING

    def summary(self) -> str:
        """The profile as an aligned text report."""
        lines = [
            "client navigations: %d" % self.client_navigations,
            "source commands:    %d" % self.source_commands,
            "round trips:        %d" % self.round_trips,
            "amplification:      %.2f source/client"
            % self.amplification,
            "verdict:            %s (single-run heuristic)"
            % self.verdict(),
        ]
        if self.orphan_spans:
            lines.append("orphan spans:       %d (broken propagation!)"
                         % self.orphan_spans)
        if self.operators:
            lines.append("per-operator:")
            lines.append("  %-24s %7s %7s %8s %7s"
                         % ("operator", "calls", "source", "amplif.",
                            "max"))
            for name in sorted(self.operators):
                op = self.operators[name]
                lines.append(
                    "  %-24s %7d %7d %8.2f %7d"
                    % (op.name, op.calls, op.source_commands,
                       op.amplification, op.max_per_call))
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The family sweep: trace-measured Definition 2 classification
# ----------------------------------------------------------------------

def profiled_cost(view_factory, source_trees: Sequence[Tree],
                  navigation: Navigation) -> int:
    """Source commands incurred by one client navigation, measured
    from the trace.

    The trace-side mirror of :func:`repro.navigation.complexity.
    measure_cost`: same wrapping (materialized documents behind
    counting proxies), but the cost is the count of ``source`` events
    a recording tracer saw.  Each metered command emits exactly one
    event, so the two measures are identical by construction.
    """
    tracer = Tracer(record=True)
    meters = [CountingDocument(MaterializedDocument(tree),
                               name="src%d" % i, tracer=tracer)
              for i, tree in enumerate(source_trees)]
    view = view_factory(meters)
    run_navigation(view, navigation)
    return sum(1 for e in tracer.events if e.layer == "source")


def profile_classify(view_factory, early_family, late_family,
                     navigation: Navigation,
                     sizes: Sequence[int] = (4, 8, 16, 32, 64)
                     ) -> ComplexityReport:
    """Classify a view by sweeping source families, trace-measured.

    :func:`repro.navigation.complexity.classify` -- its sweep, its
    decision rule -- priced by :func:`profiled_cost`, so
    ``expected_verdict(profile_classify(...).classification)`` is the
    profiler's authoritative verdict for the view.
    """
    return classify(view_factory, early_family, late_family,
                    navigation, sizes, measure=profiled_cost)
