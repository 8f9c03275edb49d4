"""The lazy ``concatenate`` operator.

Per input binding, the output value is a synthetic ``list[...]`` node
whose items are, per argument variable in order: the items of a
``list``-labeled value, or the value itself otherwise -- the n-ary
closure of the paper's four-case analysis.

Bindings pass through 1:1.  Navigating across an argument boundary
(the last item of ``$H`` to the first school in ``$LSs``) is where the
lazy implementation earns its keep: it only touches the next argument
when the client walks past the previous one.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..algebra.bindings import LIST_LABEL
from ..runtime.context import ExecutionContext
from .base import LazyError, LazyOperator, UnaryOperator

__all__ = ["LazyConcatenate"]


class LazyConcatenate(UnaryOperator):
    """Lazy n-ary concatenate; see the module docstring for the item
    enumeration rules."""

    def __init__(self, child: LazyOperator, in_vars: Sequence[str],
                 out_var: str,
                 context: Optional[ExecutionContext] = None):
        if not in_vars:
            raise LazyError("concatenate needs at least one variable")
        super().__init__(child, context)
        self.in_vars = list(in_vars)
        self.out_var = out_var
        self.variables = child.variables + [out_var]
        for var in self.in_vars:
            if var not in child.variables:
                raise LazyError("concatenate over unbound $%s" % var)

    # -- attributes (bindings pass through 1:1: the pass-through shape) ------
    def attribute(self, binding, var):
        self._check_var(var)
        if var == self.out_var:
            return ("list", binding)
        return ("sub", self.child.attribute(binding, var))

    # -- item enumeration --------------------------------------------------------
    def _first_item_of_var(self, ib, var_index: int):
        """The first item contributed by argument ``var_index`` (or the
        first from a later argument when it is an empty list)."""
        while var_index < len(self.in_vars):
            vid = self.child.attribute(ib, self.in_vars[var_index])
            if self.child.v_fetch(vid) == LIST_LABEL:
                inner = self.child.v_down(vid)
                if inner is not None:
                    return ("item", ib, var_index, inner, True)
            else:
                return ("item", ib, var_index, vid, False)
            var_index += 1
        return None

    # -- values ---------------------------------------------------------------
    def v_down(self, value):
        tag = value[0]
        if tag == "list":
            return self._first_item_of_var(value[1], 0)
        if tag == "item":
            _, _ib, _vi, inner, _from_list = value
            child = self.child.v_down(inner)
            return ("sub", child) if child is not None else None
        child = self.child.v_down(value[1])
        return ("sub", child) if child is not None else None

    def v_right(self, value):
        tag = value[0]
        if tag == "list":
            return None  # the concatenation value is a value root
        if tag == "item":
            _, ib, var_index, inner, from_list = value
            if from_list:
                sibling = self.child.v_right(inner)
                if sibling is not None:
                    return ("item", ib, var_index, sibling, True)
            return self._first_item_of_var(ib, var_index + 1)
        sibling = self.child.v_right(value[1])
        return ("sub", sibling) if sibling is not None else None

    def v_fetch(self, value):
        tag = value[0]
        if tag == "list":
            return LIST_LABEL
        if tag == "item":
            return self.child.v_fetch(value[3])
        return self.child.v_fetch(value[1])

    def v_select(self, value, predicate):
        if value[0] in ("list", "item"):
            # own values: the protocol's default sibling scan
            return LazyOperator.v_select(self, value, predicate)
        found = self.child.v_select(value[1], predicate)
        return ("sub", found) if found is not None else None
