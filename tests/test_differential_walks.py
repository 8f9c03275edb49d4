"""Property-based differential testing of the buffer's fill policies.

Seeded random navigation walks -- d/r/f/select interleavings with
partial exploration and revisits from earlier pointers -- run against
the lazy engine under every fill policy (plain, batched LXP,
look-ahead, both at once) and must agree
step-for-step with the eager oracle.  Hypothesis shrinks any failing
walk to a minimal counterexample.

Walk volume scales with the ``DIFF_WALKS`` environment variable (CI
sets 200; the local default keeps the suite quick).
"""

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import evaluate_bindings
from repro.buffer import TreeLXPServer
from repro.lazy import BindingsDocument, build_lazy_plan
from repro.navigation import (
    MaterializedDocument,
    Navigation,
    materialize,
    run_navigation,
)
from repro.navigation.commands import DOWN, FETCH, RIGHT, NavStep, Select
from repro.runtime import EngineConfig, ExecutionContext
from repro.wrappers.base import buffered

from .test_lazy_equivalence import _plans, _source_tree

WALKS = int(os.environ.get("DIFF_WALKS", "25"))

# Labels a select may probe for: real labels, data values, and one
# guaranteed miss.
_SELECT_LABELS = ["a", "b", "c", "1", "2", "3", "nope"]

#: name -> EngineConfig for the source-side buffer stack and the lazy
#: context.  Every configuration must be observationally identical to
#: the first one.
CONFIGS = {
    "plain": EngineConfig(),
    "batched": EngineConfig(batch_navigations=True, prefetch=4),
    "prefetch": EngineConfig(prefetch=2),
    "everything": EngineConfig(batch_navigations=True, prefetch=3),
}


@st.composite
def _walks(draw):
    """A random Definition-1 navigation with revisits.

    Each step continues from the previous pointer or revisits an
    earlier pointer position (``@k``), modelling a client that keeps
    several handles into the virtual answer alive at once.
    """
    steps = []
    length = draw(st.integers(0, 14))
    for index in range(length):
        kind = draw(st.sampled_from(["d", "r", "f", "f", "select"]))
        if kind == "d":
            command = DOWN
        elif kind == "r":
            command = RIGHT
        elif kind == "f":
            command = FETCH
        else:
            command = Select(draw(st.sampled_from(_SELECT_LABELS)))
        source = -1
        if index and draw(st.booleans()):
            # Revisit: any prior pointer position (0 = root handle).
            source = draw(st.integers(0, index))
        steps.append(NavStep(command, source))
    return Navigation(steps)


def _lazy_document(plan, tree, config):
    """The virtual answer document with the full buffer stack:
    tree -> LXP server -> (batched/look-ahead/plain) buffer -> lazy
    plan."""
    context = ExecutionContext.create(config)
    server = TreeLXPServer(tree, chunk_size=2, depth=2)
    source = buffered(server,
                      prefetch=config.prefetch,
                      batch=config.batch_navigations)
    lazy = build_lazy_plan(plan, {"src": source}, context)
    return BindingsDocument(lazy)


def _navigation_outcome(document, nav):
    result = run_navigation(document, nav)
    return result.labels, [p is None for p in result.pointers]


@settings(max_examples=WALKS, deadline=None)
@given(tree=_source_tree, plan=_plans(), nav=_walks(),
       config_name=st.sampled_from(sorted(CONFIGS)))
def test_random_walk_matches_eager_oracle(tree, plan, nav, config_name):
    eager_tree = evaluate_bindings(plan, {"src": tree}).to_tree()
    expected = _navigation_outcome(MaterializedDocument(eager_tree), nav)

    config = CONFIGS[config_name]
    document = _lazy_document(plan, tree, config)
    assert _navigation_outcome(document, nav) == expected


@settings(max_examples=WALKS, deadline=None)
@given(tree=_source_tree, plan=_plans(),
       config_name=st.sampled_from(sorted(CONFIGS)))
def test_materialized_answer_matches_eager_oracle(tree, plan,
                                                  config_name):
    """Full materialization through every buffer stack is
    byte-identical to the eager evaluator's answer tree."""
    expected = evaluate_bindings(plan, {"src": tree}).to_tree()
    config = CONFIGS[config_name]
    document = _lazy_document(plan, tree, config)
    assert materialize(document) == expected


@settings(max_examples=WALKS, deadline=None)
@given(tree=_source_tree, nav=_walks())
def test_buffer_stacks_agree_on_raw_source(tree, nav):
    """With no plan in the way, every buffer variant exposes the same
    document as the tree itself -- the buffer-layer half of the
    differential argument, where batching/speculation actually
    reorders the fills."""
    expected = _navigation_outcome(MaterializedDocument(tree), nav)
    for config in CONFIGS.values():
        server = TreeLXPServer(tree, chunk_size=2, depth=1)
        source = buffered(server,
                          prefetch=config.prefetch,
                          batch=config.batch_navigations)
        assert _navigation_outcome(source, nav) == expected
