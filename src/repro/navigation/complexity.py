"""Navigational complexity: the browsability classification (Def. 2).

The paper classifies a view ``q`` under a client navigation ``c`` as

* **bounded browsable** -- the number of source navigations needed to
  answer ``c`` is bounded by ``f(len(c))``, independent of the source;
* **(unbounded) browsable** -- ``c`` can be answered without reading
  any source list in its entirety, but the cost depends on the data;
* **unbrowsable** -- answering ``c`` requires consuming at least one
  source list entirely, whatever the data.

This module measures the classes *empirically*: it evaluates the view
over families of growing sources (one family placing the relevant data
early, one placing it late), meters the source navigations with
:class:`~repro.navigation.counting.CountingDocument`, and reads the
class off the two cost curves.  The static, per-plan analysis lives in
:mod:`repro.rewriter.analyzer`; the benchmark suite checks that the two
agree on the paper's examples.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, List, Sequence

from ..xtree.tree import Tree
from .commands import Navigation
from .counting import CountingDocument
from .interface import NavigableDocument, run_navigation
from .materialized import MaterializedDocument

__all__ = [
    "Browsability",
    "CostCurve",
    "ComplexityReport",
    "browsability_order",
    "compose_classes",
    "measure_cost",
    "classify",
]


class Browsability(enum.Enum):
    """The three navigational-complexity classes of Definition 2."""

    BOUNDED = "bounded browsable"
    BROWSABLE = "browsable"
    UNBROWSABLE = "unbrowsable"

    def __str__(self) -> str:
        return self.value


#: Definition 2 is a chain: bounded < browsable < unbrowsable.
_CLASS_ORDER = {
    Browsability.BOUNDED: 0,
    Browsability.BROWSABLE: 1,
    Browsability.UNBROWSABLE: 2,
}


def browsability_order(cls: Browsability) -> int:
    """Position in the Definition 2 chain (0 = bounded browsable).

    Comparisons between classes ("never more optimistic than") go
    through this so every consumer agrees on the direction.
    """
    return _CLASS_ORDER[cls]


def compose_classes(*classes: Browsability) -> Browsability:
    """The class of a navigation that chains the given sub-navigations.

    Definition 2's classes are closed under composition: answering one
    client step by performing one step of each part costs the *worst*
    part (a bounded step through an unbrowsable collection is still
    unbrowsable, a bounded step through a bounded collection stays
    bounded).  This is the one place the "composed class, not max of
    syntactic parts" rule lives -- the static analyzer composes the
    path class of a ``getDescendants`` with the *streaming* class of
    the collection it navigates, instead of taking the max over the
    operators that happen to appear in the plan text.
    """
    result = Browsability.BOUNDED
    for cls in classes:
        if browsability_order(cls) > browsability_order(result):
            result = cls
    return result


#: Builds the virtual view document from the (already wrapped and
#: metered) source documents, one per source.
ViewFactory = Callable[[Sequence[NavigableDocument]], NavigableDocument]

#: Builds the list of source trees for a given size parameter.
SourceFamily = Callable[[int], Sequence[Tree]]


@dataclass
class CostCurve:
    """Source-navigation cost as a function of the size parameter."""

    sizes: List[int]
    costs: List[int]

    def is_flat(self, tail: int = 3) -> bool:
        """True when the last ``tail`` measurements are identical --
        the empirical signature of a bound independent of the input."""
        window = self.costs[-tail:]
        return len(set(window)) == 1

    def grows(self) -> bool:
        """True when cost keeps increasing with input size."""
        if len(self.costs) < 2:
            return False
        return self.costs[-1] > self.costs[0]

    def growth_ratio(self) -> float:
        """cost growth per unit of size growth over the measured range."""
        dsize = self.sizes[-1] - self.sizes[0]
        if dsize == 0:
            return 0.0
        return (self.costs[-1] - self.costs[0]) / dsize


@dataclass
class ComplexityReport:
    """Outcome of an empirical classification run."""

    classification: Browsability
    early: CostCurve
    late: CostCurve
    navigation: Navigation

    def summary(self) -> str:
        lines = [
            "navigation: %s" % self.navigation,
            "class:      %s" % self.classification,
            "sizes:      %s" % self.early.sizes,
            "cost/early: %s" % self.early.costs,
            "cost/late:  %s" % self.late.costs,
        ]
        return "\n".join(lines)


def measure_cost(view_factory: ViewFactory,
                 source_trees: Sequence[Tree],
                 navigation: Navigation) -> int:
    """Total source navigations incurred by one client navigation.

    Each source tree is wrapped in a materialized document and a
    counting proxy; the view under test sees only the proxies.
    """
    meters = [CountingDocument(MaterializedDocument(tree), name="src%d" % i)
              for i, tree in enumerate(source_trees)]
    view = view_factory(meters)
    run_navigation(view, navigation)
    return sum(m.total for m in meters)


def classify(view_factory: ViewFactory,
             early_family: SourceFamily,
             late_family: SourceFamily,
             navigation: Navigation,
             sizes: Sequence[int] = (4, 8, 16, 32, 64),
             measure=measure_cost) -> ComplexityReport:
    """Empirically classify ``view_factory`` under ``navigation``.

    Parameters
    ----------
    measure:
        How one run is priced: ``measure(view_factory, source_trees,
        navigation) -> int``.  :func:`measure_cost` reads the meters;
        :func:`repro.navigation.profiler.profile_classify` passes the
        trace-side reading instead.  The sweep and the decision rule
        below are the same for both.
    early_family / late_family:
        Source generators parameterized by size.  The *early* family
        must place whatever the navigation looks for at the front of
        the relevant source lists; the *late* family at the back.  For
        a truly size-independent view the two families may coincide.

    Classification logic:

    * flat cost on both families  ->  bounded browsable
    * flat (or sub-linear) cost on the early family but growing cost on
      the late family -> browsable: the cost depends on where the data
      sits, but early data can be served cheaply
    * growing cost even when the data is early -> some list is being
      consumed entirely regardless of the input: unbrowsable
    """
    sizes = list(sizes)
    early = CostCurve(sizes, [
        measure(view_factory, early_family(n), navigation)
        for n in sizes
    ])
    late = CostCurve(sizes, [
        measure(view_factory, late_family(n), navigation)
        for n in sizes
    ])

    # Definition 2's bound f(n) only depends on the navigation, not
    # the data: flat cost curves on BOTH families (the absolute values
    # may differ -- where the data sits can change the constant).
    if early.is_flat() and late.is_flat():
        classification = Browsability.BOUNDED
    elif not early.grows():
        classification = Browsability.BROWSABLE
    else:
        classification = Browsability.UNBROWSABLE
    return ComplexityReport(classification, early, late, navigation)
