"""The LXP wire codec: length-prefixed JSON frames over a socket.

One frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON encoding a single object.  Both directions use the
same framing; the protocol on top (``docs/PROTOCOLS.md``, "LXP wire
framing & session lifecycle") is strictly request/reply.

A fill reply (a :class:`~repro.buffer.holes.Fragments` record) crosses
the wire in a compact nested array encoding, one array per entry::

    element  ->  ["e", label, [child, ...]]
    hole     ->  ["h", wire_id]

where ``wire_id`` is a session-scoped integer minted by the server's
hole table (:class:`~repro.server.session.HoleTable`) -- the in-
process hole identifiers embed live document pointers and never leave
the server.

Error taxonomy: :class:`WireError` is *permanent* (resending the same
bytes cannot help); :class:`TruncatedFrameError` marks a mid-frame
connection loss, :class:`FrameTooLargeError` an oversized length
prefix, and plain :class:`MalformedFrameError` everything else (bad
JSON, non-object payloads, bad fragment shapes).  A clean EOF *at a
frame boundary* is not an error: :func:`recv_frame` returns ``None``.

This is the only module that writes or reads a frame (linter rule
``X103``).  Every client -- :class:`~repro.server.client.
SocketChannel`, the status probe, the load generator, the fault kit's
well-behaved control -- runs the same :func:`exchange` and reads an
error reply through the same :data:`ERRORS` table.  A client with no
daemon between it and its session (``connect_remote``) exchanges the
same frames over a :class:`FramePipe` instead of a socket.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import (TYPE_CHECKING, Any, Callable, Dict, List,
                    NamedTuple, Optional, Tuple, Type, Union)

from ..buffer.holes import Fragments
from ..errors import (PermanentSourceError, SourceError,
                      TransientSourceError)

if TYPE_CHECKING:
    from .session import Session

__all__ = [
    "WireError", "MalformedFrameError", "TruncatedFrameError",
    "FrameTooLargeError",
    "ReplyError", "ServerBusyError", "ServerDrainingError",
    "ServerReplyError", "ErrorSpec", "ERRORS", "error_spec", "checked",
    "MAX_FRAME_BYTES", "wire_int", "frame_bytes", "decode_frame",
    "FramePipe", "send_frame", "recv_frame_bytes", "recv_frame",
    "recv_frame_sized", "exchange", "close_quietly",
    "encode_fragments", "decode_fragments", "wire_holes",
    "TRACE_KEY", "encode_trace_context", "decode_trace_context",
]

#: default per-frame size ceiling (overridable per server/client via
#: ``EngineConfig.serve_max_frame_bytes``)
MAX_FRAME_BYTES = 1 << 20

_HEADER = struct.Struct(">I")


class WireError(PermanentSourceError):
    """A wire-protocol violation.  Permanent: the same bytes will
    fail the same way, so the resilience layer never retries it."""


class MalformedFrameError(WireError):
    """The frame arrived whole but its payload is not a protocol
    object (bad JSON, a non-dict, an illegal fragment shape)."""


class FrameTooLargeError(MalformedFrameError):
    """The length prefix exceeds the frame ceiling -- either a hostile
    client or garbage bytes parsed as a huge length."""


class TruncatedFrameError(WireError):
    """The peer disconnected mid-frame (EOF inside the header or the
    payload)."""


class ReplyError(SourceError):
    """The daemon answered with a typed error frame
    (``{"ok": false, "error": code, "detail": ...}``)."""

    def __init__(self, code: str, detail: str) -> None:
        super().__init__("%s: %s" % (code, detail))
        self.code = code
        self.detail = detail


class ServerBusyError(ReplyError, TransientSourceError):
    """The daemon refused admission (``mix:busy``): it is at its
    session capacity.  Transient -- capacity frees up as sessions
    close."""


class ServerDrainingError(ReplyError, TransientSourceError):
    """The daemon is draining (``mix:draining``).  Transient from the
    fleet's point of view: a replacement server may be accepting."""


class ServerReplyError(ReplyError, PermanentSourceError):
    """Any other typed error frame.  Permanent for *this* session:
    replaying the request cannot succeed."""


class ErrorSpec(NamedTuple):
    """What a client does with one ``mix:*`` code."""

    #: the exception the reply surfaces as
    exception: Type[ReplyError]
    #: whether the resilience layer may retry past it (must agree
    #: with the exception's place in the error taxonomy)
    transient: bool
    #: whether the daemon tore a session down behind it: the
    #: connection is dead and the channel must be abandoned.  False
    #: only for ``mix:busy``, which refuses a connection before any
    #: session exists.
    killed: bool


#: The typed error codes of the wire protocol, declared once: the
#: client's code -> exception mapping, and the source of the
#: PROTOCOLS.md error-code table.  An unknown code reads as
#: ``mix:error``.
ERRORS: Dict[str, ErrorSpec] = {
    "mix:busy": ErrorSpec(ServerBusyError, True, False),
    "mix:draining": ErrorSpec(ServerDrainingError, True, True),
    "mix:protocol": ErrorSpec(ServerReplyError, False, True),
    "mix:idle": ErrorSpec(ServerReplyError, False, True),
    "mix:deadline": ErrorSpec(ServerReplyError, False, True),
    "mix:budget": ErrorSpec(ServerReplyError, False, True),
    "mix:query": ErrorSpec(ServerReplyError, False, True),
    "mix:error": ErrorSpec(ServerReplyError, False, True),
}


def error_spec(reply: Dict[str, Any]) -> Optional[ErrorSpec]:
    """The :data:`ERRORS` row of an error frame (``mix:error``'s for
    a code this client does not know); ``None`` for an ``ok`` frame."""
    if reply.get("ok"):
        return None
    code = reply.get("error")
    return ERRORS.get(code if isinstance(code, str) else "",
                      ERRORS["mix:error"])


def checked(reply: Optional[Dict[str, Any]], op: object
            ) -> Dict[str, Any]:
    """``reply`` if it is an ``ok`` frame; otherwise raise what it
    means: a clean EOF where the answer to ``op`` was due is a
    :class:`~repro.errors.TransientSourceError`, an error frame the
    :class:`ReplyError` subclass :data:`ERRORS` names."""
    if reply is None:
        raise TransientSourceError(
            "server closed the connection before answering %r" % (op,))
    spec = error_spec(reply)
    if spec is not None:
        raise spec.exception(str(reply.get("error", "mix:error")),
                             str(reply.get("detail", "")))
    return reply


def wire_int(value: object) -> bool:
    """Whether a decoded JSON value is an integer: ``true`` and
    ``false`` decode to Python bools, which are ints too."""
    return isinstance(value, int) and not isinstance(value, bool)


def _recv_exact(sock: Union[socket.socket, FramePipe], count: int,
                part: str) -> bytes:
    """Read exactly ``count`` bytes of a frame's ``part``.  EOF before
    the first header byte is a clean close at a frame boundary
    (``b""``); anywhere else it is a truncation."""
    chunks: List[bytes] = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            if part == "header" and remaining == count:
                return b""
            raise TruncatedFrameError(
                "connection closed mid-frame (%d of %d %s bytes)"
                % (count - remaining, count, part))
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def frame_bytes(payload: Dict[str, Any],
                max_frame_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """``payload`` as one well-formed frame.  Refuses to *produce* an
    oversized frame -- the sender's bug, caught before the peer would
    have to kill the connection."""
    body = json.dumps(payload, separators=(",", ":"),
                      ensure_ascii=True).encode("ascii")
    if len(body) > max_frame_bytes:
        raise FrameTooLargeError(
            "refusing to send a %d-byte frame (limit %d)"
            % (len(body), max_frame_bytes))
    return _HEADER.pack(len(body)) + body


def decode_frame(raw: bytes) -> Dict[str, Any]:
    """The payload of one whole raw frame (header included)."""
    try:
        payload = json.loads(raw[_HEADER.size:].decode("utf-8"))
    except (ValueError, UnicodeDecodeError, RecursionError) as err:
        # RecursionError: arrays or objects nested past the decoder's
        # stack, which a frame far under the size cap can do
        raise MalformedFrameError(
            "frame payload is not valid JSON: %s" % err) from None
    if not isinstance(payload, dict):
        raise MalformedFrameError(
            "frame payload must be a JSON object, got %s"
            % type(payload).__name__)
    return payload


class FramePipe:
    """A connection to a :class:`~repro.server.session.Session` in
    the caller's own process: the socket stand-in
    ``connect_remote`` hands its :class:`~repro.server.client.
    SocketChannel`.

    ``sendall`` gives the request frame to the session, which answers
    it at once, in the sending thread; ``recv`` reads the reply frame
    back.  Both frames go through :func:`frame_bytes` and
    :func:`decode_frame`, so the dialogue is the daemon's, byte for
    byte, with no socket, handler thread or timeout under it.
    """

    def __init__(self, session: "Session",
                 max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self.session = session
        self.max_frame_bytes = max_frame_bytes
        self._reply = b""

    def settimeout(self, timeout: Optional[float]) -> None:
        """Nothing to bound: the reply exists before ``sendall``
        returns."""

    def sendall(self, frame: bytes) -> None:
        self._reply = frame_bytes(
            self.session.answer(decode_frame(frame)),
            self.max_frame_bytes)

    def recv(self, count: int) -> bytes:
        chunk, self._reply = self._reply[:count], self._reply[count:]
        return chunk

    def close(self) -> None:
        self._reply = b""


def send_frame(sock: Union[socket.socket, FramePipe],
               payload: Dict[str, Any],
               max_frame_bytes: int = MAX_FRAME_BYTES) -> int:
    """Send ``payload`` as one frame.  Returns the total bytes put on
    the wire (header included), so channel accounting can charge real
    sizes."""
    frame = frame_bytes(payload, max_frame_bytes)
    sock.sendall(frame)
    return len(frame)


def recv_frame_bytes(sock: Union[socket.socket, FramePipe],
                     max_frame_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Read one whole frame, undecoded (header included); ``b""`` on
    a clean EOF at a frame boundary.

    Socket timeouts propagate as ``socket.timeout`` (the caller's
    idle/slow-loris policy decides what that means); a bad length or
    a mid-frame EOF raises a :class:`WireError` subclass.
    """
    header = _recv_exact(sock, _HEADER.size, "header")
    if not header:
        return b""
    (length,) = _HEADER.unpack(header)
    if length > max_frame_bytes:
        raise FrameTooLargeError(
            "frame of %d bytes exceeds the %d-byte limit"
            % (length, max_frame_bytes))
    return header + _recv_exact(sock, length, "payload")


def recv_frame(sock: socket.socket,
               max_frame_bytes: int = MAX_FRAME_BYTES
               ) -> Optional[Dict[str, Any]]:
    """Read and decode one frame; ``None`` on a clean EOF at a frame
    boundary."""
    return recv_frame_sized(sock, max_frame_bytes)[0]


def recv_frame_sized(sock: Union[socket.socket, FramePipe],
                     max_frame_bytes: int = MAX_FRAME_BYTES
                     ) -> "Tuple[Optional[Dict[str, Any]], int]":
    """Like :func:`recv_frame`, also reporting the bytes read off the
    wire (header included) so channel accounting can charge real
    transfer sizes."""
    raw = recv_frame_bytes(sock, max_frame_bytes)
    if not raw:
        return None, 0
    return decode_frame(raw), len(raw)


def exchange(sock: Union[socket.socket, FramePipe],
             request: Dict[str, Any], timeout_ms: float,
             max_frame_bytes: int = MAX_FRAME_BYTES
             ) -> "Tuple[Optional[Dict[str, Any]], int, int]":
    """One request/reply round trip, each socket operation bounded by
    ``timeout_ms``: ``(reply, bytes sent, bytes received)``.

    The reply is handed back unjudged (``None`` for a clean EOF) so a
    caller can account the traffic first; :func:`checked` turns it
    into the ``ok`` frame or the typed exception.
    """
    sock.settimeout(timeout_ms / 1000.0)
    sent = send_frame(sock, request, max_frame_bytes)
    reply, received = recv_frame_sized(sock, max_frame_bytes)
    return reply, sent, received


def close_quietly(sock: Union[socket.socket, FramePipe]) -> None:
    """Close ``sock``; a peer that is already gone is not news."""
    try:
        sock.close()
    except OSError:
        pass


# ----------------------------------------------------------------------
# Trace context envelope
# ----------------------------------------------------------------------

#: the optional request-envelope field carrying trace context
TRACE_KEY = "trace"


def encode_trace_context(trace_id: str,
                         parent_span_id: Optional[int],
                         sampled: bool) -> Dict[str, Any]:
    """The request-envelope trace context shape.

    ``id`` names the whole cross-process trace, ``parent`` is the
    client span issuing this request (the server adopts it as the
    causal parent of its ``server.request`` span), and ``sampled``
    is the deterministic sampling verdict -- a server never records
    spans for a trace the client sampled out, so one decision
    governs both processes.
    """
    return {"id": trace_id, "parent": parent_span_id,
            "sampled": bool(sampled)}


def decode_trace_context(frame: Dict[str, Any]
                         ) -> Optional[Dict[str, Any]]:
    """Pop and validate a request frame's trace context, in place.

    Returns the normalized ``{"id", "parent", "sampled"}`` dict, or
    None when the frame carries no (or a malformed) context.
    Deliberately *tolerant*: observability must never break
    navigation, so a bad envelope is dropped rather than killing the
    session -- the request itself is still well-formed without it.
    """
    raw = frame.pop(TRACE_KEY, None)
    if not isinstance(raw, dict):
        return None
    trace_id = raw.get("id")
    parent = raw.get("parent")
    sampled = raw.get("sampled", True)
    if not isinstance(trace_id, str) or not trace_id:
        return None
    if parent is not None and not wire_int(parent):
        return None
    if not isinstance(sampled, bool):
        return None
    return {"id": trace_id, "parent": parent, "sampled": sampled}


# ----------------------------------------------------------------------
# Fragment codec
# ----------------------------------------------------------------------

def encode_fragments(fragments: Union[Fragments, List[Fragments]],
                     intern: Callable[[object], int]) -> List[Any]:
    """A fill reply in wire shape, its holes interned to session-scoped
    integers through ``intern`` in document order: one loop over the
    record, a stack of the open child lists.  A list of records (runs
    of siblings one after another) encodes as their concatenation."""
    if isinstance(fragments, list):
        fragments = Fragments.join(fragments)
    hole_ids = iter(fragments.holes)
    sizes = fragments.sizes
    runs: List[Any] = [([], len(sizes))]   # (child list, entry past it)
    for index, label in enumerate(fragments.labels):
        while index == runs[-1][1]:
            runs.pop()
        run = runs[-1][0]
        if label is None:
            run.append(["h", intern(next(hole_ids))])
        else:
            run.append(["e", label, []])
            if sizes[index] > 1:
                runs.append((run[-1][2], index + sizes[index]))
    return runs[0][0]


def decode_fragments(obj: Any) -> Fragments:
    """Decode a fill reply's wire shape into its record, strictly
    validated: anything that is not exactly the documented array
    shape is malformed.  One loop over a stack of the arrays still to
    read, each element's slot pushed below its children (as a tuple,
    which JSON never decodes to) to count its subtree when they are
    done."""
    if not isinstance(obj, list):
        raise MalformedFrameError(
            "fragment list must be an array, got %r" % (obj,))
    labels: List[Optional[str]] = []
    sizes: List[int] = []
    holes: List[int] = []
    todo = obj[::-1]
    while todo:
        item = todo.pop()
        if item.__class__ is tuple:
            sizes[item[0]] = len(sizes) - item[0]
            continue
        if not isinstance(item, list) or not item:
            raise MalformedFrameError(
                "fragment must be a non-empty array, got %r" % (item,))
        kind = item[0]
        if kind == "h" and len(item) == 2 and wire_int(item[1]):
            holes.append(item[1])
        elif kind == "e" and len(item) == 3 \
                and isinstance(item[1], str) and isinstance(item[2], list):
            if item[2]:
                todo.append((len(sizes),))
                todo += item[2][::-1]
        else:
            raise MalformedFrameError(
                "hole fragment must be ['h', int], got %r" % (item,)
                if kind == "h" else "element fragment must be ['e', "
                "label, [children]], got %r" % (item,) if kind == "e"
                else "unknown fragment kind %r (expected 'e' or 'h')"
                % (kind,))
        labels.append(None if kind == "h" else item[1])
        sizes.append(1)
    return Fragments(tuple(labels), tuple(sizes), tuple(holes))


def wire_holes(fragments: Any) -> List[int]:
    """Every hole id in a wire-shape fragment list, in document
    order, without building fragments -- what a raw-frame client (the
    load generator, the fault kit's scripted session) follows to its
    next request.  Shapes :func:`decode_fragments` would reject are
    skipped, not raised."""
    holes: List[int] = []
    stack: List[Any] = list(reversed(fragments
                                     if isinstance(fragments, list)
                                     else []))
    while stack:
        item = stack.pop()
        if not isinstance(item, list) or not item:
            continue
        if item[0] == "h" and len(item) == 2:
            holes.append(item[1])
        elif item[0] == "e" and len(item) == 3 \
                and isinstance(item[2], list):
            stack.extend(reversed(item[2]))
    return holes
