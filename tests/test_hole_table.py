"""The session hole table against a model.

:class:`~repro.server.session.HoleTable` is the one hole-id scheme of
both remote paths -- the daemon's sessions and the in-process
``connect_remote`` -- so every hole a client ever sees is one of its
wire integers.  The model is the list of holes in first-intern order:
a hole's wire id is its position in that list plus one.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 rule, run_state_machine_as_test)

from repro.server.session import HoleTable
from repro.server.wire import MalformedFrameError

#: in-process hole ids: hashable, and never an int (a wire id is one)
HOLES = st.one_of(
    st.tuples(st.just("at"), st.integers(0, 5)),
    st.just(("root",)),
    st.tuples(st.text("ab", max_size=2), st.integers(0, 2)))

#: what a client may send back in place of a wire id
NOT_WIRE_IDS = st.one_of(
    st.booleans(), st.none(), st.floats(allow_nan=False),
    st.text(max_size=3), st.lists(st.integers(), max_size=2))


class HoleTableModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.table = HoleTable()
        self.order = []

    @rule(hole=HOLES)
    def intern(self, hole):
        if hole not in self.order:
            self.order.append(hole)
        wire_id = self.table.intern(hole)
        assert wire_id == self.order.index(hole) + 1
        assert self.table.intern(hole) == wire_id
        assert self.table.resolve(wire_id) == hole

    @rule(wire_id=st.integers(-3, 12))
    def resolve(self, wire_id):
        if 1 <= wire_id <= len(self.order):
            assert self.table.resolve(wire_id) \
                == self.order[wire_id - 1]
        else:
            with pytest.raises(MalformedFrameError):
                self.table.resolve(wire_id)

    @rule(value=NOT_WIRE_IDS)
    def resolve_a_non_integer(self, value):
        with pytest.raises(MalformedFrameError):
            self.table.resolve(value)

    @invariant()
    def ids_are_dense_from_one(self):
        assert len(self.table) == len(self.order)
        assert [self.table.resolve(i + 1)
                for i in range(len(self.order))] == self.order


def test_hole_table_matches_its_model():
    run_state_machine_as_test(
        HoleTableModel,
        settings=settings(max_examples=60, stateful_step_count=30,
                          deadline=None))
