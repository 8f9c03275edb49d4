"""The lazy ``concatenate`` operator.

Per input binding, the output value is a synthetic ``list[...]`` node
whose items are, per argument variable in order: the items of a
``list``-labeled value, or the value itself otherwise -- the n-ary
closure of the paper's four-case analysis.

Bindings pass through 1:1.  Navigating across an argument boundary
(the last item of ``$H`` to the first school in ``$LSs``) is where the
lazy implementation earns its keep: it only touches the next argument
when the client walks past the previous one.

The operator mints two value ids, told apart by length: ``(owner,
binding)`` for the list and ``(owner, binding, argument, input id,
from_list)`` for each item -- the input's value re-rooted so that its
right sibling is the next item.  Below an item, and for every other
variable, the ids are the input's own.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..algebra.bindings import LIST_LABEL
from ..runtime.context import ExecutionContext
from .base import LazyOperator, UnaryOperator

__all__ = ["LazyConcatenate"]


class LazyConcatenate(UnaryOperator):
    """Lazy n-ary concatenate; see the module docstring for the item
    enumeration rules."""

    def __init__(self, child: LazyOperator, in_vars: Sequence[str],
                 out_var: str,
                 context: Optional[ExecutionContext] = None):
        super().__init__(child, context)
        self.in_vars = list(in_vars)
        self.out_var = out_var
        self.variables = child.variables + [out_var]

    # -- attributes (bindings pass through 1:1: the pass-through shape) ------
    def attribute(self, binding, var):
        if var == self.out_var:
            return (self.spanned or self, binding)
        return UnaryOperator.attribute(self, binding, var)

    # -- item enumeration --------------------------------------------------------
    def _first_item_of_var(self, owner, ib, var_index: int):
        """The first item contributed by argument ``var_index`` (or the
        first from a later argument when it is an empty list); ``owner``
        is the list's."""
        while var_index < len(self.in_vars):
            vid = self.child.attribute(ib, self.in_vars[var_index])
            if vid[0].v_fetch(vid) == LIST_LABEL:
                inner = vid[0].v_down(vid)
                if inner is not None:
                    return (owner, ib, var_index, inner, True)
            else:
                return (owner, ib, var_index, vid, False)
            var_index += 1
        return None

    # -- values (own ids only; v_select is the protocol's scan) ---------------
    def v_down(self, value):
        if len(value) == 2:  # the list: down to its first item
            return self._first_item_of_var(value[0], value[1], 0)
        inner = value[3]
        return inner[0].v_down(inner)

    def v_right(self, value):
        if len(value) == 2:
            return None  # the concatenation value is a value root
        owner, ib, var_index, inner, from_list = value
        if from_list:
            sibling = inner[0].v_right(inner)
            if sibling is not None:
                return (owner, ib, var_index, sibling, True)
        return self._first_item_of_var(owner, ib, var_index + 1)

    def v_fetch(self, value):
        if len(value) == 2:
            return LIST_LABEL
        inner = value[3]
        return inner[0].v_fetch(inner)
