"""Tests for the empirical browsability profiler.

Acceptance anchor: on the paper's three canonical views (Example 1 /
E2: concatenation, label filter, reorder) the profiler's sweep verdict
must agree with both the meter-based empirical classification and the
static plan analyzer.
"""

import pytest

from repro.algebra import (
    GetDescendants,
    OrderBy,
    Project,
    Source,
    Union,
)
from repro.lazy import BindingsDocument, build_lazy_plan
from repro.mediator import MIXMediator
from repro.navigation import (
    Browsability,
    MaterializedDocument,
    Navigation,
    NavigationProfile,
    classify,
    expected_verdict,
    profile_classify,
    profiled_cost,
)
from repro.rewriter import classify_plan
from repro.runtime import EngineConfig, Tracer
from repro.testing import FakeClock
from repro.xtree import Tree, elem

from .fixtures import fig4_plan, homes_source, schools_source


# -- the three E2 views (Example 1) ------------------------------------

def _concat_plan():
    left = Project(GetDescendants(Source("src0", "R1"), "R1", "_", "X"),
                   ["X"])
    right = Project(GetDescendants(Source("src1", "R2"), "R2", "_", "X"),
                    ["X"])
    return Union(left, right)


def _filter_plan():
    return Project(GetDescendants(Source("src0", "R1"), "R1", "hit",
                                  "X"), ["X"])


def _sort_plan():
    base = GetDescendants(
        GetDescendants(Source("src0", "R1"), "R1", "_", "X"),
        "X", "_", "V")
    return OrderBy(Project(base, ["X", "V"]), ["V"])


def _view_factory(plan):
    def factory(source_docs):
        documents = {"src%d" % i: doc
                     for i, doc in enumerate(source_docs)}
        return BindingsDocument(build_lazy_plan(plan, documents))

    return factory


def _early(n):
    kids = [elem("hit", "000")] + [elem("miss", "%03d" % i)
                                   for i in range(n - 1)]
    return [Tree("src", kids), Tree("src", kids)]


def _late(n):
    kids = [elem("miss", "%03d" % i) for i in range(n - 1)]
    kids.append(elem("hit", "000"))
    return [Tree("src", kids), Tree("src", kids)]


NAV = Navigation.parse("d;f;d@1;f;d@2;f")

CASES = [
    ("q_conc", _concat_plan, Browsability.BOUNDED),
    ("q_sigma", _filter_plan, Browsability.BROWSABLE),
    ("q_sort", _sort_plan, Browsability.UNBROWSABLE),
]


class TestProfileClassify:
    @pytest.mark.parametrize("name,builder,expected", CASES,
                             ids=[c[0] for c in CASES])
    def test_sweep_matches_static_and_empirical(self, name, builder,
                                                expected):
        report = profile_classify(_view_factory(builder()),
                                  _early, _late, NAV)
        assert report.classification is expected, report.summary()
        assert report.classification is classify_plan(builder())
        assert expected_verdict(report.classification) \
            == expected_verdict(expected)

    @pytest.mark.parametrize("name,builder,expected", CASES,
                             ids=[c[0] for c in CASES])
    def test_trace_cost_equals_meter_cost(self, name, builder,
                                          expected):
        # The sweep's cost curves must be identical to the
        # meter-based classifier's: same views, same families, same
        # navigation, cost read off the trace instead of the meters.
        metered = classify(_view_factory(builder()), _early, _late,
                           NAV)
        traced = profile_classify(_view_factory(builder()),
                                  _early, _late, NAV)
        assert traced.early.costs == metered.early.costs
        assert traced.late.costs == metered.late.costs

    def test_verdict_mapping(self):
        assert expected_verdict(Browsability.BOUNDED) == "bounded"
        assert expected_verdict(Browsability.BROWSABLE) == "growing"
        assert expected_verdict(Browsability.UNBROWSABLE) \
            == "unbounded-suspect"

    def test_profiled_cost_counts_source_commands(self):
        cost = profiled_cost(_view_factory(_filter_plan()),
                             _early(8), NAV)
        assert cost > 0

    def test_fig4_join_view_matches_static_classification(self):
        """Acceptance: on the Fig. 5/9/10 join view (the fig4 plan)
        the profiler's verdict agrees with the static classifier --
        finding the first ``med_home`` is cheap when the join partner
        sits early in the schools list and data-dependent when it
        sits late, i.e. browsable."""
        from repro.lazy import build_virtual_document

        def view(source_docs):
            docs = {"homesSrc": source_docs[0],
                    "schoolsSrc": source_docs[1]}
            return build_virtual_document(fig4_plan(),
                                          lambda url: docs[url])

        def family(match_pos):
            def make(n):
                homes = Tree("homesSrc", [Tree("homes", [
                    elem("home", elem("addr", "a0"),
                         elem("zip", "Z"))])])
                fillers = [elem("school", elem("dir", "d%d" % i),
                                elem("zip", "X%d" % i))
                           for i in range(n - 1)]
                hit = elem("school", elem("dir", "hit"),
                           elem("zip", "Z"))
                kids = ([hit] + fillers if match_pos == "early"
                        else fillers + [hit])
                return [homes,
                        Tree("schoolsSrc", [Tree("schools", kids)])]
            return make

        nav = Navigation.parse("d;f")
        report = profile_classify(view, family("early"),
                                  family("late"), nav)
        static = classify_plan(fig4_plan())
        assert report.classification is static
        assert report.classification is Browsability.BROWSABLE
        assert expected_verdict(report.classification) == "growing"


class TestNavigationProfile:
    def _observed_run(self):
        tracer = Tracer(record=True, clock=FakeClock())
        config = EngineConfig(observe_operators=True)
        med = MIXMediator(config, tracer=tracer)
        med.register_source("homesSrc",
                            MaterializedDocument(homes_source()))
        med.register_source("schoolsSrc",
                            MaterializedDocument(schools_source()))
        result = med.prepare(fig4_plan())
        result.materialize()
        return med, tracer

    def test_from_events_fig4(self):
        med, tracer = self._observed_run()
        profile = NavigationProfile.from_events(tracer.events)
        assert profile.orphan_spans == 0
        assert profile.client_navigations > 0
        assert profile.source_commands \
            == med.total_source_navigations()
        assert len(profile.per_navigation) \
            == profile.client_navigations
        assert sum(profile.per_navigation) == profile.source_commands
        assert profile.amplification > 0
        # the plan's operators show up under their minted names
        assert any(name.startswith("Join#")
                   for name in profile.operators)
        join = next(p for name, p in profile.operators.items()
                    if name.startswith("Join#"))
        assert join.calls > 0
        assert join.source_commands > 0

    def test_summary_renders(self):
        _, tracer = self._observed_run()
        profile = NavigationProfile.from_events(tracer.events)
        text = profile.summary()
        assert "client navigations:" in text
        assert "verdict:" in text
        assert "per-operator:" in text

    def test_heuristic_verdicts(self):
        flat = NavigationProfile(client_navigations=5,
                                 per_navigation=[2, 2, 2, 2, 2],
                                 source_commands=10)
        assert flat.verdict() == "bounded"
        spike = NavigationProfile(client_navigations=4,
                                  per_navigation=[1, 1, 500, 1],
                                  source_commands=503)
        assert spike.verdict() == "unbounded-suspect"
        ramp = NavigationProfile(client_navigations=5,
                                 per_navigation=[2, 4, 6, 8, 10],
                                 source_commands=30)
        assert ramp.verdict() == "growing"
        empty = NavigationProfile()
        assert empty.verdict() == "bounded"


class TestQueryResultProfile:
    def _mediator(self):
        med = MIXMediator(tracer=Tracer(clock=FakeClock()))
        med.register_source("homesSrc",
                            MaterializedDocument(homes_source()))
        med.register_source("schoolsSrc",
                            MaterializedDocument(schools_source()))
        return med

    def test_profile_method(self):
        med = self._mediator()
        result = med.prepare(fig4_plan())
        profile = result.profile()
        assert profile.client_navigations > 0
        assert profile.source_commands > 0
        assert profile.orphan_spans == 0

    def test_profile_does_not_disturb_the_query(self):
        med = self._mediator()
        result = med.prepare(fig4_plan())
        result.profile()
        # the original document still answers correctly
        from .fixtures import expected_fig4_answer
        assert result.materialize() == expected_fig4_answer()

    def test_explain_analyze_appends_profile(self):
        med = self._mediator()
        result = med.prepare(fig4_plan())
        plain = result.explain()
        analyzed = result.explain(analyze=True)
        assert "browsability profile (observed)" not in plain
        assert "browsability profile (observed):" in analyzed
        assert "amplification:" in analyzed
        assert "verdict:" in analyzed
