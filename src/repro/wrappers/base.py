"""Shared wrapper helpers: wiring a wrapper + buffer into a navigable
source in one call (:func:`buffered`), the one builder of the full
seam stack under every source and channel (:func:`source_stack`),
plus the source-native pushdown capability contract.

The pushdown contract
---------------------

A wrapper may advertise that it can evaluate a compiled single-source
subplan natively by implementing two methods (no base class; the
capability is negotiated by presence):

``push_compile(compiled: CompiledSubplan) -> Optional[request]``
    Inspect the compiled chain and answer with a backend-specific
    request object (carrying a ``describe() -> str``), or None to
    decline.  Declining must be the answer whenever the wrapper
    cannot reproduce the lazy export byte-for-byte; accepting a chain
    it can only serve *conservatively* (shipping a superset of what
    the chain needs) is always sound, because the mediator replays
    the original subplan over the pushed result.

``push(request) -> Fragments``
    Execute one previously compiled request against the backend in a
    single native evaluation and return the complete exported view
    (restricted as the request allows) as one hole-free reply record
    (:class:`~repro.buffer.holes.Fragments`).  It must be shaped
    exactly like the wrapper's incremental LXP export with every hole
    resolved.

Wrappers without the capability are never asked twice:
``negotiate_push`` answers None for them and the mediator keeps the
lazy chain, byte-identical to a pushdown-off run.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple, TYPE_CHECKING

from ..buffer.component import BufferComponent
from ..buffer.lxp import LXPServer, LXPStats
from ..runtime.resilience import Clock, resilient_server

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..pushdown.compiled import CompiledSubplan
    from ..runtime.context import ExecutionContext
    from ..runtime.fragcache import FragcacheDecision

__all__ = ["buffered", "source_stack", "negotiate_push"]


def negotiate_push(server: Any,
                   compiled: "CompiledSubplan") -> Optional[Any]:
    """Offer ``compiled`` to ``server``; a request on acceptance.

    The capability negotiation of the pushdown seam: servers that do
    not implement ``push_compile`` (every plain LXP wrapper and
    document) keep today's lazy behavior untouched.
    """
    push_compile = getattr(server, "push_compile", None)
    if push_compile is None:
        return None
    return push_compile(compiled)


def buffered(server: LXPServer, prefetch: int = 0, batch: bool = False,
             tracer=None, name: str = "") -> BufferComponent:
    """Stack the generic buffer component on top of an LXP wrapper
    (the refined VXD architecture of Figure 7).

    ``prefetch`` is the look-ahead budget, ``batch`` the pipelined
    ``fill_batch`` demand path -- the fill policies of
    :mod:`repro.buffer.component`.  Both off is the plain demand-only
    buffer.

    ``tracer``/``name`` make the buffer's fills show up as
    ``buffer.fill`` / ``buffer.prefetch_fill`` spans in the causal
    trace (idle tracers cost nothing).
    """
    return BufferComponent(server, lookahead=prefetch, batch=batch,
                           tracer=tracer, name=name)


def source_stack(server: Any, name: str,
                 context: "ExecutionContext",
                 clock: Optional[Clock] = None,
                 channel: bool = False,
                 ) -> Tuple[BufferComponent,
                            Optional["FragcacheDecision"]]:
    """Assemble the seam stack over one LXP server, bottom up::

        server -> [fragment cache] -> [resilience] -> buffer

    and register every layer's counters with ``context`` -- the one
    place the order is decided, for ``register_wrapper``,
    ``connect_remote`` and ``server.client.connect`` alike.  Each
    bracketed seam is a pass-through unless ``context.config`` arms
    it, so the default stack is the plain buffer, byte-for-byte.

    ``channel=False``: ``server`` is a source wrapper registered as
    ``name``; its :class:`~repro.buffer.lxp.LXPStats`, when it keeps
    them, register too (the ``lxp_*`` metric series read them).  With
    ``config.fragment_cache`` on (else the module is
    never imported) its fills route through the process-wide fragment
    store when admissible -- below resilience, so degraded
    ``<mix:error>`` placeholders are never cached -- and a whole view
    already stored at the wrapper's snapshot version is adopted
    pre-filled.  The admissibility decision is the second result.

    ``channel=True``: ``server`` is a client's remote channel (its
    ``stats`` are ``ChannelStats``) and ``name`` a serial prefix
    (``"remote#"``): the channel registers under the minted name,
    also assigned to ``server.name``, the buffer as the next
    ``client-buffer#N``.  A channel has no version authority, so the
    fragment cache never applies.
    """
    config = context.config
    tracer = context.tracer
    decision = None
    prefill = None
    if channel:
        name = server.name = context.register("channel", name,
                                              server.stats)
    else:
        stats = getattr(server, "stats", None)
        if isinstance(stats, LXPStats):
            context.register("lxp", name, stats)
        if config.fragment_cache:
            from ..runtime.fragcache import fragment_cached, shared_store
            store = shared_store()
            server, prefill, decision = fragment_cached(
                name, server, store=store, tracer=tracer)
            context.register("fragcache", "shared", store.stats)
    transport = resilient_server(server, config, name=name,
                                 clock=clock, tracer=tracer)
    if transport is not server:
        context.register("resilience", name, transport.resilience)
    if prefill is not None:
        buffer = BufferComponent.prefilled(prefill, tracer=tracer,
                                           name=name)
    else:
        buffer = buffered(
            transport, config.prefetch,
            batch=config.batch_navigations,
            tracer=tracer, name=name)
    context.register("buffer", "client-buffer#" if channel else name,
                     buffer.stats)
    return buffer, decision
