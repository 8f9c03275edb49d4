"""The wire-dialogue golden: what the daemon puts on the socket.

Raw reply frames (4-byte length prefix included), captured through
the fault kit's raw-socket helpers so no client library sits between
the test and the bytes, pinned in ``tests/golden/wire_dialogue.json``:

* one scripted session -- ``open``, ``fill``, ``fill_batch`` with
  speculation, ``ping``, ``close``;
* one reply per typed error code -- ``mix:busy``, ``mix:draining``,
  ``mix:protocol`` (garbage bytes, an oversized length prefix, a
  first frame that is not ``open``), ``mix:idle``, ``mix:deadline``,
  ``mix:budget``, ``mix:query``, ``mix:error``;
* the key sets of the ``mix:status`` reply (its values are live
  counters, pinned by ``tests/golden/stats_report.json``).

Frames are ASCII JSON behind a binary header, so each is stored
latin-1 decoded: the header reads as four ``\\u00XX`` escapes.

Regenerate (only for an *intentional* protocol change) with
``REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_wire_golden.py``.
"""

import json
import os
import pathlib

from repro.mediator.mix import MIXMediator
from repro.navigation.interface import NavigableDocument
from repro.navigation.materialized import MaterializedDocument
from repro.runtime.config import EngineConfig
from repro.server import MediatorServer
from repro.bench.workloads import homes_and_schools
from repro.testing.faults import FakeClock
from repro.testing.transport import (
    open_raw,
    recv_reply_bytes,
    send_frame_bytes,
)
from repro.testing.transport import _decode  # test-only convenience

from .test_server_sessions import QUERY, make_server

GOLDEN = pathlib.Path(__file__).parent / "golden" / "wire_dialogue.json"
REGEN = os.environ.get("REGEN_GOLDEN") == "1"


class _Costly(NavigableDocument):
    """Every navigation advances the fake clock (the deadline case)
    or raises a non-library error (the internal-fault case)."""

    def __init__(self, inner, clock=None, boom=False):
        self.inner = inner
        self.clock = clock
        self.boom = boom

    def _step(self):
        if self.boom:
            raise RuntimeError("boom")
        self.clock.advance(50.0)

    def root(self):
        self._step()
        return self.inner.root()

    def down(self, pointer):
        self._step()
        return self.inner.down(pointer)

    def right(self, pointer):
        self._step()
        return self.inner.right(pointer)

    def fetch(self, pointer):
        return self.inner.fetch(pointer)


def _costly_server(clock=None, boom=False, **overrides):
    mediator = MIXMediator(EngineConfig(serve_port=0, **overrides))
    tree = homes_and_schools(6)["homesSrc"]
    mediator.register_source("homesSrc", _Costly(
        MaterializedDocument(tree), clock=clock, boom=boom))
    server = MediatorServer(mediator, clock=clock)
    return (server,) + tuple(server.start())


def _dialogue(host, port, frames, raw_first=None):
    """Send ``frames`` in order on one connection; the raw reply to
    each.  ``raw_first`` is written verbatim before anything else."""
    replies = []
    sock = open_raw(host, port, timeout_ms=5000.0)
    try:
        if raw_first is not None:
            sock.sendall(raw_first)
            replies.append(recv_reply_bytes(sock))
        for frame in frames:
            send_frame_bytes(sock, frame)
            replies.append(recv_reply_bytes(sock))
    finally:
        sock.close()
    return replies


def _open_frame(query=QUERY):
    return {"op": "open", "query": query}


def _scripted_session():
    server, host, port = make_server(n_homes=6, chunk_size=2)
    try:
        sock = open_raw(host, port, timeout_ms=5000.0)
        try:
            replies = []

            def ask(frame):
                send_frame_bytes(sock, frame)
                replies.append(recv_reply_bytes(sock))
                return _decode(replies[-1])

            root = ask(_open_frame())["root"]
            filled = ask({"op": "fill", "hole": root})
            holes = [child[1]
                     for child in filled["fragments"][0][2]
                     if child[0] == "h"]
            assert holes, "the script needs a hole to batch over"
            ask({"op": "fill_batch", "holes": holes, "speculate": 2})
            ask({"op": "ping"})
            ask({"op": "close"})
        finally:
            sock.close()
        return replies
    finally:
        server.drain()


def _error_replies():
    errors = {}

    server, host, port = make_server(serve_max_sessions=1)
    try:
        holder = open_raw(host, port)
        try:
            send_frame_bytes(holder, _open_frame())
            assert _decode(recv_reply_bytes(holder))["ok"]
            # Busy: the refusal arrives unasked, on connect.
            errors["mix:busy"] = _dialogue(host, port, [],
                                           raw_first=b"")
            # Draining: the idle holder is notified on drain().
            server.drain()
            errors["mix:draining"] = [recv_reply_bytes(holder)]
        finally:
            holder.close()
    finally:
        server.drain()

    server, host, port = make_server(serve_max_frame_bytes=256,
                                     serve_idle_timeout_ms=150.0)
    try:
        errors["mix:protocol/garbage"] = _dialogue(
            host, port, [], raw_first=b"\x00\x00\x00\x04not-json")
        errors["mix:protocol/oversized"] = _dialogue(
            host, port, [], raw_first=b"\x7f\xff\xff\xff")
        errors["mix:protocol/first-frame"] = _dialogue(
            host, port, [{"op": "ping"}])
        errors["mix:idle"] = _dialogue(
            host, port, [], raw_first=b"\x00\x00")
        errors["mix:query"] = _dialogue(
            host, port, [_open_frame("this is not XMAS")])
    finally:
        server.drain()

    server, host, port = make_server(n_homes=8, chunk_size=2,
                                     serve_session_max_fills=1)
    try:
        errors["mix:budget"] = _dialogue(
            host, port, [_open_frame(), {"op": "fill", "hole": 1},
                         {"op": "fill", "hole": 1}])[-1:]
    finally:
        server.drain()

    server, host, port = _costly_server(
        clock=FakeClock(), serve_request_deadline_ms=120.0)
    try:
        errors["mix:deadline"] = _dialogue(
            host, port, [_open_frame(),
                         {"op": "fill", "hole": 1}])[-1:]
    finally:
        server.drain()

    server, host, port = _costly_server(boom=True)
    try:
        errors["mix:error"] = _dialogue(
            host, port, [_open_frame(),
                         {"op": "fill", "hole": 1}])[-1:]
    finally:
        server.drain()
    return errors


def _status_keys():
    server, host, port = make_server()
    try:
        holder = open_raw(host, port)
        try:
            send_frame_bytes(holder, _open_frame())
            assert _decode(recv_reply_bytes(holder))["ok"]
            reply = _decode(_dialogue(
                host, port, [{"op": "status", "prometheus": True}])[0])
        finally:
            holder.close()
    finally:
        server.drain()
    status = reply["status"]
    return {"reply": sorted(reply),
            "status": sorted(status),
            "server": sorted(status["server"]),
            "session_row": sorted(status["sessions"][0]),
            "flight_recorder": sorted(status["flight_recorder"])}


def _observed():
    errors = _error_replies()
    for code, replies in errors.items():
        assert len(replies) == 1 and replies[0], code
        assert _decode(replies[0])["error"] == code.split("/")[0]
    return {
        "session": [raw.decode("latin-1")
                    for raw in _scripted_session()],
        "errors": {code: replies[0].decode("latin-1")
                   for code, replies in sorted(errors.items())},
        "status_keys": _status_keys(),
    }


def test_wire_dialogue_matches_golden():
    observed = json.dumps(_observed(), sort_keys=True, indent=1) + "\n"
    if REGEN:
        GOLDEN.write_text(observed)
    assert observed == GOLDEN.read_text()
