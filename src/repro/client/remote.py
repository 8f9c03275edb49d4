"""Remote clients: the mediator/client split of Section 5's outlook.

"in our current implementation the mediator and the client application
run in the same address space ... In the future we will allow the
client and the mediator to communicate over the network, however this
will require exchanging fragments of XML documents to avoid the
communication overhead." -- paper, Section 5.

This module realizes that plan with the machinery the paper already
provides: the *virtual answer document itself* is exported through LXP
(:class:`NavigableLXPServer` turns any NavigableDocument into an LXP
wrapper), shipped as the daemon's session frames, and reassembled
client-side by the ordinary generic buffer component.  The client's
XMLElement API is unchanged -- the stack composes:

    XMLElement -> BufferComponent -> SocketChannel -> FramePipe
        -> Session -> NavigableLXPServer -> VirtualDocument
        -> lazy mediators -> ... -> sources

which is the served stack of :mod:`repro.server` with the socket and
the daemon's handler thread taken out.

The naive alternative -- every DOM-VXD command as its own round trip --
is modeled by :class:`RPCDocument` so experiment E10 can quantify the
fragment protocol's advantage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..buffer.holes import Fragments, LXPProtocolError, append_hole
from ..buffer.lxp import LXPServer, LXPStats, measure_fragment
from ..navigation.interface import NavigableDocument
from ..runtime.config import validate_granularity
from ..runtime.context import ExecutionContext
from ..runtime.counters import Counters
from ..runtime.resilience import SYSTEM_CLOCK, Clock
from .element import XMLElement

__all__ = ["NavigableLXPServer", "MeteredTransport", "ChannelStats",
           "RPCDocument", "connect_remote"]


class NavigableLXPServer(LXPServer):
    """Export any NavigableDocument through LXP.

    Hole identifiers embed the document's own (hashable) pointers, so
    the server is stateless beyond the document it serves:

    * ``("root",)`` -- the unexplored root element;
    * ``("at", p)`` -- the element at ``p`` and its right siblings.

    ``chunk_size`` bounds siblings per fill, ``depth`` bounds how many
    levels each shipped element carries -- the same granularity model
    as the source-side wrappers, now applied mediator->client.

    The exporter takes no lock: every remote entry into it comes
    through one session, which one thread drives at a time -- the
    daemon's handler, or, behind :func:`connect_remote`, whichever
    client thread holds the channel's ``client.channel`` lock.
    """

    def __init__(self, document: NavigableDocument,
                 chunk_size: Optional[int] = None,
                 depth: Optional[int] = None):
        self.document = document
        self.chunk_size, self.depth = validate_granularity(chunk_size,
                                                           depth)
        self.stats = LXPStats()

    def get_root(self) -> Fragments:
        return Fragments.hole(("root",))

    def fill(self, hole_id) -> Fragments:
        """Ship up to ``chunk_size`` siblings from the hole's element
        on (the root alone, for ``("root",)``), each ``depth`` levels
        deep, and a hole for the rest of every cut run.  One loop over
        a stack of the open runs; per element the commands are
        ``fetch``, ``down``, its subtree's, then ``right`` (none after
        the root)."""
        kind = hole_id[0]
        if kind not in ("root", "at"):
            raise LXPProtocolError("unknown hole id %r" % (hole_id,))
        doc = self.document
        out: tuple = ([], [], [])
        labels, sizes, _ = out
        #: the open runs: [the next element to ship -- the last one
        #: shipped once some are; how many are; how many may be (0:
        #: the run is past the depth horizon); their depth; the slot
        #: of the element whose children they are]
        runs: list = [[doc.root() if kind == "root" else hole_id[1], 0,
                 self.chunk_size, self.depth, None]]
        while runs:
            run = runs[-1]
            pointer, count, limit, depth, slot = run
            if count:   # the last shipped element's subtree is done
                pointer = None if kind == "root" and len(runs) == 1 \
                    else doc.right(pointer)
            if pointer is not None and count < limit:
                run[0], run[1] = pointer, count + 1
                labels.append(doc.fetch(pointer))
                sizes.append(1)
                child = doc.down(pointer)
                if child is not None:
                    runs.append([child, 0, self.chunk_size if depth > 1
                                 else 0, depth - 1, len(sizes) - 1])
                continue
            if pointer is not None:     # the rest of the run: a hole
                append_hole(out, ("at", pointer))
            runs.pop()
            if slot is not None:
                sizes[slot] = len(sizes) - slot
        reply = Fragments(*map(tuple, out))
        measure_fragment(self.stats, reply)
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
    channel is charged from the client thread and -- under the
    session server -- a per-connection handler thread, while
    reporters read concurrently through :meth:`snapshot`.
    """

    messages: int = 0          # request/reply round trips
    commands: int = 0          # commands carried by those round trips
    bytes_transferred: int = 0
    virtual_ms: float = 0.0


class MeteredTransport:
    """Shared cost-charging core of every remote transport
    (:class:`~repro.server.client.SocketChannel`,
    :class:`RPCDocument`): one :class:`ChannelStats` object, one
    charging rule -- ``latency_ms`` per round trip plus ``ms_per_kb``
    on its bytes.

    Charging is lock-guarded (through the stats object's own lock,
    so external reporters and the charger serialize on one lock):
    with a thread-backed prefetcher the channel is driven from worker
    threads and the client thread at once.
    """

    def __init__(self, latency_ms: float = 20.0,
                 ms_per_kb: float = 2.0,
                 tracer=None, name: str = ""):
        self.latency_ms = latency_ms
        self.ms_per_kb = ms_per_kb
        self.stats = ChannelStats()
        self.tracer = tracer
        #: the channel's name (assigned by the context when the
        #: channel registers)
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


class RPCDocument(MeteredTransport, NavigableDocument):
    """The naive remote design: every DOM-VXD command is a round trip.

    This is the baseline the paper's fragment-exchange plan beats: a
    fetch of one label costs a full network latency.
    """

    _COMMAND_BYTES = 48  # request + pointer + small reply

    def __init__(self, document: NavigableDocument,
                 latency_ms: float = 20.0, ms_per_kb: float = 2.0,
                 tracer=None, name: str = ""):
        super().__init__(latency_ms, ms_per_kb, tracer, name)
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

    The server side is the daemon's own
    :class:`~repro.server.session.Session` -- exporter, hole table,
    deadline and budgets from the engine config -- and the client
    reads it through the same :class:`~repro.server.client.
    SocketChannel` as :func:`~repro.server.client.connect`, over a
    :class:`~repro.server.wire.FramePipe` instead of a socket.  Holes
    travel as the session's wire integers, and the channel charges
    the real frame bytes at ``latency_ms`` / ``ms_per_kb``.

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
    backoff/breaker and the session deadline (tests use a fake).

    Returns the client-side root XMLElement (backed by a client-local
    buffer over the fragment channel) and the channel's stats object.
    """
    from ..server.client import SocketChannel
    from ..server.daemon import ServerStats
    from ..server.session import Session
    from ..server.wire import FramePipe
    from ..wrappers.base import source_stack

    if context is None:
        context = ExecutionContext.create()
    config = context.config
    session = Session(
        "", document, config,
        clock if clock is not None else SYSTEM_CLOCK, ServerStats(),
        chunk_size=config.chunk_size if chunk_size is None else chunk_size,
        depth=config.depth if depth is None else depth)
    channel = SocketChannel(
        FramePipe(session, config.serve_max_frame_bytes),
        session.root_wire,
        max_frame_bytes=config.serve_max_frame_bytes,
        latency_ms=config.latency_ms if latency_ms is None else latency_ms,
        ms_per_kb=config.ms_per_kb if ms_per_kb is None else ms_per_kb,
        tracer=context.tracer)
    buffer, _ = source_stack(channel, "remote#", context, clock=clock,
                             channel=True)
    session.session_id = channel.name
    return XMLElement(buffer, buffer.root()), channel.stats
