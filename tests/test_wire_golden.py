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


def _dialogue(host, port, frames, raw_first=None, then_eof=False):
    """Send ``frames`` in order on one connection; the raw reply to
    each.  ``raw_first`` is written verbatim before anything else;
    ``then_eof`` insists the daemon hangs up after the last reply."""
    replies = []
    sock = open_raw(host, port, timeout_ms=5000.0)
    try:
        if raw_first is not None:
            sock.sendall(raw_first)
            replies.append(recv_reply_bytes(sock))
        for frame in frames:
            send_frame_bytes(sock, frame)
            replies.append(recv_reply_bytes(sock))
        if then_eof:
            try:
                assert sock.recv(1) == b""
            except ConnectionError:
                pass  # hung up with our bytes unread: a reset
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


#: the rows of the error table: every typed code, ``mix:protocol``
#: three ways (tests/test_wire_tables.py runs one case per row)
ERROR_ROWS = (
    "mix:budget", "mix:busy", "mix:deadline", "mix:draining",
    "mix:error", "mix:idle", "mix:protocol/first-frame",
    "mix:protocol/garbage", "mix:protocol/oversized", "mix:query",
)


def _moved(server, before):
    """The fault counters of ``server`` that moved since ``before``."""
    after = server.stats.snapshot()
    return {name: after[name] - before[name] for name in after
            if after[name] != before[name]
            and (name.endswith("_kills") or name == "query_rejects"
                 or name.startswith("rejected_"))}


def error_replies():
    """Drive a daemon into every row of :data:`ERROR_ROWS`:
    ``{row: (the raw error frame, the fault counters it moved)}``."""
    errors = {}

    def provoke(row, server, *args, **kwargs):
        before = server.stats.snapshot()
        # An error frame is always its connection's last: what lets
        # a client drop the socket on ``ErrorSpec.killed``.
        replies = _dialogue(*server.address, *args, then_eof=True,
                            **kwargs)
        assert replies and replies[-1], row
        errors[row] = (replies[-1], _moved(server, before))

    server, host, port = make_server(serve_max_sessions=1)
    try:
        holder = open_raw(host, port)
        try:
            send_frame_bytes(holder, _open_frame())
            assert _decode(recv_reply_bytes(holder))["ok"]
            # Busy: the refusal arrives unasked, on connect.
            provoke("mix:busy", server, [], raw_first=b"")
            # Draining: the idle holder is notified on drain().  (Its
            # handler counts ``drained`` once woken: not a fault.)
            server.drain()
            errors["mix:draining"] = (recv_reply_bytes(holder), {})
        finally:
            holder.close()
    finally:
        server.drain()

    server, _, _ = make_server(serve_max_frame_bytes=256,
                               serve_idle_timeout_ms=150.0)
    try:
        provoke("mix:protocol/garbage", server, [],
                raw_first=b"\x00\x00\x00\x04not-json")
        provoke("mix:protocol/oversized", server, [],
                raw_first=b"\x7f\xff\xff\xff")
        provoke("mix:protocol/first-frame", server, [{"op": "ping"}])
        provoke("mix:idle", server, [], raw_first=b"\x00\x00")
        provoke("mix:query", server,
                [_open_frame("this is not XMAS")])
    finally:
        server.drain()

    first_fill = [_open_frame(), {"op": "fill", "hole": 1}]
    server, _, _ = make_server(n_homes=8, chunk_size=2,
                               serve_session_max_fills=1)
    try:
        provoke("mix:budget", server,
                first_fill + [{"op": "fill", "hole": 1}])
    finally:
        server.drain()

    server, _, _ = _costly_server(clock=FakeClock(),
                                  serve_request_deadline_ms=120.0)
    try:
        provoke("mix:deadline", server, first_fill)
    finally:
        server.drain()

    server, _, _ = _costly_server(boom=True)
    try:
        provoke("mix:error", server, first_fill)
    finally:
        server.drain()
    assert sorted(errors) == sorted(ERROR_ROWS)
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
    errors = error_replies()
    for row, (raw, _) in errors.items():
        assert _decode(raw)["error"] == row.split("/")[0]
    return {
        "session": [raw.decode("latin-1")
                    for raw in _scripted_session()],
        "errors": {row: raw.decode("latin-1")
                   for row, (raw, _) in sorted(errors.items())},
        "status_keys": _status_keys(),
    }


def test_wire_dialogue_matches_golden():
    observed = json.dumps(_observed(), sort_keys=True, indent=1) + "\n"
    if REGEN:
        GOLDEN.write_text(observed)
    assert observed == GOLDEN.read_text()
