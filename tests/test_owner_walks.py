"""Owner walks are the generic walk, command for command.

``value[0].v_text(value)`` and ``value[0].v_key(value)`` let the
owner of a value walk it as it sees fit: a ``source`` walks its
document directly, a ``getDescendants`` match root hands the walk to
its inner id's owner.  ``LazyOperator.v_text`` / ``v_key`` are the
generic walk through each node owner's ``v_down`` / ``v_right`` /
``v_fetch``.  Over random trees and every kind of owner, the two must
give the same answer, send the same commands to the source in the
same order (a logging :class:`CountingDocument` under the operator),
count the same :class:`NavCounters` (so scrape the same metric
series), and -- with the tracer active or operators observed -- emit
the same events.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EngineConfig
from repro.buffer import TreeLXPServer
from repro.lazy import (LazyCreateElement, LazyGetDescendants,
                        LazyOperator, LazySource, SpannedOperator)
from repro.navigation import (CountingDocument, MaterializedDocument,
                              NavCounters)
from repro.runtime.context import ExecutionContext, Tracer
from repro.testing import FakeClock
from repro.wrappers.base import buffered
from repro.xtree import Tree, leaf

_trees = st.recursive(
    st.sampled_from(["1", "2", "ab", "x"]).map(leaf),
    lambda children: st.builds(
        Tree, st.sampled_from(["r", "s", "t"]),
        st.lists(children, min_size=1, max_size=4)),
    max_leaves=14,
)

OWNERS = ["materialized", "buffer", "match_root", "constructed"]


def _document(kind, tree):
    if kind == "buffer":
        return buffered(TreeLXPServer(tree, chunk_size=2))
    return MaterializedDocument(tree)


def _value(owner, tree, steps, tracer, observe):
    """Build the owner over a fresh source; return (value id, the
    source's command log, its counters, the context)."""
    context = ExecutionContext(
        EngineConfig(observe_operators=observe),
        tracer=Tracer(record=True, clock=FakeClock()) if tracer
        else None)
    if owner == "match_root":
        tree = Tree("top", [tree])  # so the path "_" matches ``tree``
    logged = CountingDocument(_document(owner, tree), log=True)
    meter = CountingDocument(logged, name="src", tracer=context.tracer)
    counters = context.navigations[meter] = NavCounters()

    def wrap(op, name):
        return SpannedOperator(op, name) if observe else op

    op = wrap(LazySource(meter, "X", context), "Source#1")
    if owner == "match_root":
        op = wrap(LazyGetDescendants(op, "X", "_", "Y", context),
                  "GetDescendants#1")
        value = op.attribute(op.first_binding(), "Y")
    elif owner == "constructed":
        op = wrap(LazyCreateElement(op, "made", "X", "Y", context),
                  "CreateElement#1")
        value = op.attribute(op.first_binding(), "Y")
    else:
        value = op.attribute(op.first_binding(), "X")
    # Step into the value (down, then right k times), so walks also
    # start below a root, beside siblings they must not visit.
    for rights in steps:
        child = value[0].v_down(value)
        if child is None:
            break
        value = child
        for _ in range(rights):
            sibling = value[0].v_right(value)
            if sibling is None:
                break
            value = sibling
    return value, logged, counters, context


def _observed(walk, owner, tree, steps, tracer, observe):
    value, logged, counters, context = _value(
        owner, tree, steps, tracer, observe)
    before_log, before = len(logged.trace), counters + NavCounters()
    before_events = len(context.tracer.events)
    result = walk(value)
    events = [(str(e), e.span_id, e.parent_id, e.ts_ms)
              for e in context.tracer.events[before_events:]]
    return (result, logged.trace[before_log:],
            (counters - before).as_dict(), events,
            context.metrics_prometheus())


@settings(max_examples=120, deadline=None)
@given(tree=_trees, owner=st.sampled_from(OWNERS),
       steps=st.lists(st.integers(0, 3), max_size=3),
       tracer=st.booleans(), observe=st.booleans(),
       kind=st.sampled_from(["text", "key"]))
def test_owner_walk_is_the_generic_walk(tree, owner, steps, tracer,
                                        observe, kind):
    if kind == "text":
        def by_owner(value):
            return value[0].v_text(value)

        def generic(value):
            return LazyOperator.v_text(value[0], value)
    else:
        def by_owner(value):
            return value[0].v_key(value)

        def generic(value):
            return LazyOperator.v_key(value[0], value)
    args = (owner, tree, steps, tracer, observe)
    walked = _observed(by_owner, *args)
    assert walked == _observed(generic, *args)
    assert walked[1], "the walk issued no source command"


def test_the_source_walks_its_own_document_when_nobody_listens():
    """Idle tracer: the source's own walk runs, not one
    v_* call per node."""
    tree = Tree("r", [Tree("a", [leaf("1"), leaf("2")]), leaf("3")])
    source = LazySource(MaterializedDocument(tree), "X")
    value = source.attribute(source.first_binding(), "X")
    calls = []
    for method in ("v_down", "v_right", "v_fetch"):
        original = getattr(source, method)
        setattr(source, method,
                lambda v, _m=method, _o=original: calls.append(_m)
                or _o(v))
    assert value[0].v_text(value) == "123"
    assert value[0].v_key(value) == ("r", (("a", ("1", "2")), "3"))
    assert calls == []
    assert LazyOperator.v_text(source, value) == "123"
    assert calls
