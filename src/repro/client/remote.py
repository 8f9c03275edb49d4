"""Remote clients: the mediator/client split of Section 5's outlook.

"in our current implementation the mediator and the client application
run in the same address space ... In the future we will allow the
client and the mediator to communicate over the network, however this
will require exchanging fragments of XML documents to avoid the
communication overhead." -- paper, Section 5.

This module realizes that plan with the machinery the paper already
provides: the *virtual answer document itself* is exported through LXP
(:class:`NavigableLXPServer` turns any NavigableDocument into an LXP
wrapper), shipped over a cost-charging :class:`MessageChannel`, and
reassembled client-side by the ordinary generic buffer component.  The
client's XMLElement API is unchanged -- the stack composes:

    XMLElement -> BufferComponent -> MessageChannel -> NavigableLXPServer
        -> VirtualDocument -> lazy mediators -> ... -> sources

The naive alternative -- every DOM-VXD command as its own round trip --
is modeled by :class:`RPCDocument` so experiment E10 can quantify the
fragment protocol's advantage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..buffer.holes import (
    FragElem,
    FragHole,
    Fragment,
    LXPProtocolError,
    fragment_wire_size,
)
from ..buffer.lxp import LXPServer, LXPStats, measure_fragment
from ..navigation.interface import NavigableDocument
from ..runtime.config import validate_granularity
from ..runtime.context import ExecutionContext
from ..runtime.counters import Counters
from ..runtime.locks import make_lock
from ..runtime.resilience import Clock
from .element import XMLElement

__all__ = ["NavigableLXPServer", "MessageChannel", "MeteredTransport",
           "ChannelStats", "RPCDocument", "connect_remote",
           "fragment_wire_size"]


class NavigableLXPServer(LXPServer):
    """Export any NavigableDocument through LXP.

    Hole identifiers embed the document's own (hashable) pointers, so
    the server is stateless beyond the document it serves:

    * ``("root",)`` -- the unexplored root element;
    * ``("at", p)`` -- the element at ``p`` and its right siblings.

    ``chunk_size`` bounds siblings per fill, ``depth`` bounds how many
    levels each shipped element carries -- the same granularity model
    as the source-side wrappers, now applied mediator->client.

    An exported answer is the one place several threads can enter a
    query: the client thread and the look-ahead pool workers behind
    :func:`connect_remote`, or the daemon's session handler.  The
    query's operators, caches and source counters take no lock of
    their own, so every ``fill`` -- a ``fill_batch`` answers through
    it -- runs under the exporter's ``export.fill`` lock: one section
    per fill, never one per navigation.
    """

    def __init__(self, document: NavigableDocument,
                 chunk_size: Optional[int] = None,
                 depth: Optional[int] = None):
        self.document = document
        self.chunk_size, self.depth = validate_granularity(chunk_size,
                                                           depth)
        self.stats = LXPStats()
        #: one navigating thread at a time in the exported query
        self._lock = make_lock("export.fill")

    def get_root(self) -> FragHole:
        return FragHole(("root",))

    def _ship(self, pointer, depth_left: int) -> FragElem:
        label = self.document.fetch(pointer)
        if depth_left <= 1:
            child = self.document.down(pointer)
            if child is None:
                return FragElem(label)
            return FragElem(label, (FragHole(("at", child)),))
        kids: List[Fragment] = []
        child = self.document.down(pointer)
        shipped = 0
        while child is not None and shipped < self.chunk_size:
            kids.append(self._ship(child, depth_left - 1))
            shipped += 1
            child = self.document.right(child)
        if child is not None:
            kids.append(FragHole(("at", child)))
        return FragElem(label, tuple(kids))

    def fill(self, hole_id) -> List[Fragment]:
        with self._lock:
            # a fill navigates the query down to its sources and may
            # block on their I/O; see BLOCKING_HOLD_ALLOWED
            # lint: allow=L011,L012
            reply = self._fill(hole_id)
        measure_fragment(self.stats, reply)
        return reply

    def _fill(self, hole_id) -> List[Fragment]:
        kind = hole_id[0]
        if kind == "root":
            return [self._ship(self.document.root(), self.depth)]
        if kind == "at":
            return self._ship_siblings(hole_id[1])
        raise LXPProtocolError("unknown hole id %r" % (hole_id,))

    def _ship_siblings(self, pointer) -> List[Fragment]:
        reply: List[Fragment] = []
        shipped = 0
        while pointer is not None and shipped < self.chunk_size:
            reply.append(self._ship(pointer, self.depth))
            shipped += 1
            pointer = self.document.right(pointer)
        if pointer is not None:
            reply.append(FragHole(("at", pointer)))
        return reply


@dataclass
class ChannelStats(Counters, shared=True):
    """Traffic accounting for one client connection.

    ``messages`` counts request/reply round trips; ``commands`` counts
    the navigation/fill commands those round trips carried.  Without
    batching the two are equal; a pipelined channel ships many
    commands per message, so ``messages <= commands`` always and the
    gap is exactly what batching saved.

    Self-locked (like :class:`~repro.buffer.lxp.LXPStats`): one
    channel is charged from the client thread, prefetch workers, and
    -- under the session server -- a per-connection handler thread,
    while reporters read concurrently through :meth:`snapshot`.
    """

    messages: int = 0          # request/reply round trips
    commands: int = 0          # commands carried by those round trips
    bytes_transferred: int = 0
    virtual_ms: float = 0.0


class MeteredTransport:
    """Shared cost-charging core of every simulated remote transport
    (:class:`MessageChannel`, :class:`RPCDocument`): one
    :class:`ChannelStats` object, one charging rule.

    Charging is lock-guarded (through the stats object's own lock,
    so external reporters and the charger serialize on one lock):
    with a thread-backed prefetcher the channel is driven from worker
    threads and the client thread at once.
    """

    def __init__(self, latency_ms: float = 20.0,
                 ms_per_kb: float = 2.0,
                 tracer=None, metrics=None, name: str = ""):
        self.latency_ms = latency_ms
        self.ms_per_kb = ms_per_kb
        self.stats = ChannelStats()
        self.tracer = tracer
        #: optional MetricsRegistry + channel name: charges also feed
        #: the channel_* metric series (``name`` is assigned by the
        #: context when the channel registers)
        self.metrics = metrics
        self.name = name

    def _charge(self, size: int, commands: int = 1) -> None:
        with self.stats.lock:
            self.stats.messages += 1
            self.stats.commands += commands
            self.stats.bytes_transferred += size
            self.stats.virtual_ms += self.latency_ms \
                + self.ms_per_kb * (size / 1024.0)
        if self.tracer is not None and self.tracer.active:
            self.tracer.emit("channel", "round_trip", bytes=size,
                             commands=commands)
        metrics = self.metrics
        if metrics is not None and metrics.enabled:
            channel = self.name or "unnamed"
            metrics.counter("channel_round_trips_total").inc(
                channel=channel)
            metrics.counter("channel_commands_total").inc(
                commands, channel=channel)
            metrics.histogram("channel_message_bytes").observe(
                size, channel=channel)


class MessageChannel(MeteredTransport, LXPServer):
    """An LXP server proxied over a simulated network.

    Each ``fill`` is one round trip: fixed ``latency_ms`` plus
    ``ms_per_kb`` transfer cost on the serialized reply.  A
    ``fill_batch`` is *also* one round trip -- that is the point of
    the pipelined protocol -- carrying one command per answered hole.
    """

    def __init__(self, server: LXPServer, latency_ms: float = 20.0,
                 ms_per_kb: float = 2.0, tracer=None, metrics=None,
                 name: str = ""):
        super().__init__(latency_ms, ms_per_kb, tracer, metrics, name)
        self.server = server

    def get_root(self) -> FragHole:
        root = self.server.get_root()
        self._charge(fragment_wire_size(root))
        return root

    def fill(self, hole_id) -> List[Fragment]:
        reply = self.server.fill(hole_id)
        self._charge(sum(fragment_wire_size(f) for f in reply)
                     + len(repr(hole_id)))
        return reply

    def fill_batch(self, hole_ids, speculate: int = 0
                   ) -> List[Tuple[object, List[Fragment]]]:
        replies = self.server.fill_batch(hole_ids, speculate)
        size = len(repr(list(hole_ids)))
        for hole_id, fragments in replies:
            size += len(repr(hole_id)) \
                + sum(fragment_wire_size(f) for f in fragments)
        self._charge(size, commands=max(len(replies), 1))
        return replies


class RPCDocument(MeteredTransport, NavigableDocument):
    """The naive remote design: every DOM-VXD command is a round trip.

    This is the baseline the paper's fragment-exchange plan beats: a
    fetch of one label costs a full network latency.
    """

    _COMMAND_BYTES = 48  # request + pointer + small reply

    def __init__(self, document: NavigableDocument,
                 latency_ms: float = 20.0, ms_per_kb: float = 2.0,
                 tracer=None, metrics=None, name: str = ""):
        super().__init__(latency_ms, ms_per_kb, tracer, metrics, name)
        self.document = document

    def root(self):
        # Handing out the root handle is free (it ships with the
        # query's reply).
        return self.document.root()

    def down(self, pointer):
        self._charge(self._COMMAND_BYTES)
        return self.document.down(pointer)

    def right(self, pointer):
        self._charge(self._COMMAND_BYTES)
        return self.document.right(pointer)

    def fetch(self, pointer):
        result = self.document.fetch(pointer)
        self._charge(self._COMMAND_BYTES + len(result))
        return result


def connect_remote(document: NavigableDocument,
                   chunk_size: Optional[int] = None,
                   depth: Optional[int] = None,
                   latency_ms: Optional[float] = None,
                   ms_per_kb: Optional[float] = None,
                   context: Optional[ExecutionContext] = None,
                   clock: Optional[Clock] = None
                   ) -> Tuple[XMLElement, ChannelStats]:
    """Open a remote client session onto ``document``.

    Granularity and channel costs default to the execution context's
    engine config (or the config defaults when no context is given).
    The client side of the channel is the standard
    :func:`~repro.wrappers.base.source_stack`: the channel's stats
    register with the context so the query's aggregated ``stats()``
    covers the wire traffic, active resilience (retries, a retry
    deadline, or degrade mode) hardens the round trips -- in degrade
    mode a broken one splices a ``<mix:error>`` placeholder into the
    client's view instead of aborting -- and the config's concurrency
    knobs pick the buffer.  ``clock`` injects a time source for the
    backoff/breaker (tests use a fake).

    Returns the client-side root XMLElement (backed by a client-local
    buffer over the fragment channel) and the channel's stats object.
    """
    from ..wrappers.base import source_stack

    if context is None:
        context = ExecutionContext.create()
    config = context.config
    server = NavigableLXPServer(
        document,
        chunk_size=config.chunk_size if chunk_size is None else chunk_size,
        depth=config.depth if depth is None else depth)
    channel = MessageChannel(
        server,
        latency_ms=config.latency_ms if latency_ms is None else latency_ms,
        ms_per_kb=config.ms_per_kb if ms_per_kb is None else ms_per_kb,
        tracer=context.tracer, metrics=context.metrics)
    buffer, _ = source_stack(channel, "remote#", context, clock=clock,
                             channel=True)
    server.stats.metrics = context.metrics
    server.stats.source = channel.name
    return XMLElement(buffer, buffer.root()), channel.stats
