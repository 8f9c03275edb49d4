"""The protocol's two declarations are complete and agree.

``repro.server.wire.ERRORS`` (what a client does with each ``mix:*``
code), ``repro.server.daemon.FAULTS`` (what the daemon does with each
failure) and ``repro.server.daemon.OPS`` (what it answers at all) are
each written down once; this suite drives a live daemon through every
row and checks both sides read it the same way.  The rows themselves
-- how to provoke each code -- are the wire golden's
(:data:`tests.test_wire_golden.ERROR_ROWS`).
"""

import dataclasses

import pytest

from repro.errors import is_transient
from repro.server import ServerStats
from repro.server.daemon import FAULTS, OPS
from repro.server.session import Session
from repro.server.wire import (
    ERRORS,
    ReplyError,
    checked,
    decode_frame,
    exchange,
)
from repro.testing.transport import open_raw

from .test_server_sessions import QUERY, make_server
from .test_wire_golden import ERROR_ROWS, error_replies


@pytest.fixture(scope="module")
def provoked():
    return error_replies()


def _reason_of(code):
    """The one kill reason FAULTS files ``code`` under."""
    reasons = {reason for _, _, reason, row_code, _ in FAULTS
               if row_code == code}
    assert len(reasons) == 1, (code, reasons)
    return reasons.pop()


class TestErrorTable:
    def test_every_code_is_provoked_and_only_those(self):
        assert {row.split("/")[0] for row in ERROR_ROWS} == set(ERRORS)

    @pytest.mark.parametrize("row", ERROR_ROWS, ids=[
        row[len("mix:"):].replace("/", "-") for row in ERROR_ROWS])
    def test_row_reads_the_same_on_both_sides(self, provoked, row):
        """The ``protocol-first-frame`` case is the old
        ``test_first_frame_must_be_open``, as one more row."""
        code = row.split("/")[0]
        raw, moved = provoked[row]
        spec = ERRORS[code]
        # Client side: the declared class, code intact, and a place
        # in the retry taxonomy that matches the declared bit.
        with pytest.raises(ReplyError) as raised:
            checked(decode_frame(raw), "test")
        assert type(raised.value) is spec.exception
        assert raised.value.code == code
        assert is_transient(raised.value) is spec.transient
        # Daemon side: the one counter FAULTS says this failure moves.
        if code in ("mix:busy", "mix:draining"):
            expected = {"rejected_busy": 1} if code == "mix:busy" else {}
        elif _reason_of(code) is None:
            expected = {"query_rejects": 1}
        else:
            expected = {_reason_of(code) + "_kills": 1}
        assert moved == expected

    def test_kill_reasons_are_the_kill_counters(self):
        reasons = {reason for _, _, reason, _, _ in FAULTS
                   if reason is not None}
        counters = {field.name[:-len("_kills")]
                    for field in dataclasses.fields(ServerStats)
                    if field.name.endswith("_kills")}
        assert reasons == counters

    def test_fault_codes_are_declared_errors(self):
        codes = {code for _, _, _, code, _ in FAULTS if code is not None}
        # Admission refusals are not failures of a request: they are
        # the two codes FAULTS does not carry.
        assert codes == set(ERRORS) - {"mix:busy", "mix:draining"}

    def test_every_phase_ends_in_a_catch_all(self):
        """``_fail`` must always find a row: the loop only hands it
        what the phase's last row matches."""
        last = {}
        for phase, exception, _, _, _ in FAULTS:
            last[phase] = exception
        assert last == {"recv": OSError, "dispatch": Exception,
                        "send": OSError}


class TestOpTable:
    def test_ops_are_the_daemons_two_plus_the_sessions(self):
        assert set(OPS) == {"open", "status"} | set(Session.OPS)
        assert len(OPS) == len(set(OPS))

    def test_every_op_is_answered(self):
        requests = {
            "open": {"op": "open", "query": QUERY},
            "fill": {"op": "fill", "hole": 1},
            "fill_batch": {"op": "fill_batch", "holes": [1]},
        }
        assert OPS[0] == "open" and "close" in OPS
        order = [op for op in OPS if op != "close"] + ["close"]
        server, host, port = make_server()
        try:
            sock = open_raw(host, port)
            try:
                for op in order:
                    reply, _, _ = exchange(
                        sock, requests.get(op, {"op": op}), 2000.0)
                    assert reply is not None and reply["ok"], op
            finally:
                sock.close()
        finally:
            server.drain()

    def test_an_undeclared_op_is_a_protocol_fault(self):
        server, host, port = make_server()
        try:
            sock = open_raw(host, port)
            try:
                exchange(sock, {"op": "open", "query": QUERY}, 2000.0)
                # Unhashable on purpose: the table lookup must not
                # turn a malformed op into an internal error.
                reply, _, _ = exchange(sock, {"op": ["fill"]}, 2000.0)
                assert reply["error"] == "mix:protocol"
            finally:
                sock.close()
        finally:
            server.drain()
