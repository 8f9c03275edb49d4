"""Per-operator observation: the span-emitting operator proxy.

The paper's navigational-complexity argument is *per operator*
(Definition 2 composes over the operator tree), but the trace a bare
run produces only shows the endpoints: client navigations above,
source commands below.  :class:`SpannedOperator` fills in the middle.
Wrapped around every lazy mediator at plan-build time (gated on
``EngineConfig.observe_operators``), it brackets each protocol call --
``first_binding`` / ``next_binding`` / ``attribute`` / ``v_down`` /
``v_right`` / ``v_fetch`` / ``v_select`` -- in an ``operator`` span.
Binding-level calls go to an operator's *inputs*, so their spans nest
down the plan.  Value ids name their owner, and a wrapped operator's
owner is its proxy: a value navigation opens one span, at the operator
that minted the id, and none at the operators it crosses on the way
(they no longer run).  One client navigation thus becomes a tree whose
internal nodes are operator calls and whose leaves are buffer fills
and source commands -- exactly what the browsability profiler
(:mod:`repro.navigation.profiler`) measures amplification from.

The proxy is transparent: it subclasses :class:`LazyOperator`, shares
the wrapped operator's :class:`~repro.runtime.context.
ExecutionContext`, and delegates everything else via ``__getattr__``
(callers verified to touch inputs only through the protocol).  With an
idle tracer each call costs one attribute check and a delegation.
"""

from __future__ import annotations

from .base import LazyOperator

__all__ = ["SpannedOperator"]


class SpannedOperator(LazyOperator):
    """Span-emitting transparent proxy around one lazy mediator.

    ``name`` identifies the operator in the trace (minted by the
    context as ``Kind#N``, deterministic in build order); it travels
    in the span's ``op`` data field.
    """

    def __init__(self, op: LazyOperator, name: str):
        # No super().__init__: the proxy shares the wrapped operator's
        # context rather than minting a default one.
        self.op = op
        self.name = name
        self.ctx = op.ctx
        # the ids the operator mints route their navigations here
        op.spanned = self

    @property
    def variables(self):
        return self.op.variables

    def _call(self, method: str, thunk):
        tracer = self.ctx.tracer
        if not tracer.active:
            return thunk()
        # lint: allow=E002 -- callers pass contract names verbatim
        with tracer.span("operator", method, op=self.name):
            return thunk()

    # -- binding-level navigation ----------------------------------------
    def first_binding(self):
        return self._call("first_binding", self.op.first_binding)

    def next_binding(self, binding):
        return self._call("next_binding",
                          lambda: self.op.next_binding(binding))

    def attribute(self, binding, var):
        return self._call("attribute",
                          lambda: self.op.attribute(binding, var))

    # -- value-level navigation --------------------------------------------
    def v_down(self, value):
        return self._call("v_down", lambda: self.op.v_down(value))

    def v_right(self, value):
        return self._call("v_right", lambda: self.op.v_right(value))

    def v_fetch(self, value):
        return self._call("v_fetch", lambda: self.op.v_fetch(value))

    def v_select(self, value, predicate):
        # Explicit delegation: the base-class default would scan with
        # v_right/v_fetch and defeat a wrapped operator's pushdown.
        return self._call("v_select",
                          lambda: self.op.v_select(value, predicate))

    # -- transparency ------------------------------------------------------
    def __getattr__(self, attr):
        if attr == "op":  # guards recursion during unpickling
            raise AttributeError(attr)
        return getattr(self.op, attr)

    def __repr__(self) -> str:
        # the name alone: it is printed inside every id that names
        # this proxy as owner
        return self.name
