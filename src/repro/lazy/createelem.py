"""The lazy ``createElement`` operator (paper Figure 9).

Per input binding, a new element whose label is a constant (or the
text of a label variable's value) and whose children are the subtrees
of the content value.  The Figure 9 mappings are realized literally:

* ``f`` on the created value node returns the constant label without
  touching the input ("the operator just returns the label
  'med_homes'");
* ``d`` on the created node navigates down into the content value's
  children -- ``<id, d(p_b.HLSs)>``;
* bindings map 1:1 (``d``/``r`` at the binding level pass through).
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from ..runtime.context import ExecutionContext
from .base import (LazyError, LazyOperator, UnaryOperator,
                   value_text_of)

__all__ = ["LazyCreateElement"]


class LazyCreateElement(UnaryOperator):
    """Lazy createElement per Figure 9; see the module docstring for
    the command mappings."""

    def __init__(self, child: LazyOperator,
                 label: Union[str, Tuple[str, str]],
                 content_var: str, out_var: str,
                 context: Optional[ExecutionContext] = None):
        super().__init__(child, context)
        if isinstance(label, tuple):
            kind, name = label
            if kind != "var":
                raise LazyError("bad label spec %r" % (label,))
            self.label_var: Optional[str] = name
            self.label_const: Optional[str] = None
        else:
            self.label_var = None
            self.label_const = label
        self.content_var = content_var
        self.out_var = out_var
        self.variables = child.variables + [out_var]
        for var in [content_var] + ([self.label_var]
                                    if self.label_var else []):
            if var not in child.variables:
                raise LazyError("createElement over unbound $%s" % var)

    # -- attributes (bindings map 1:1: the pass-through shape) ---------------
    def attribute(self, binding, var):
        self._check_var(var)
        if var == self.out_var:
            return ("elem", binding)
        return ("sub", self.child.attribute(binding, var))

    # -- values ---------------------------------------------------------------
    def v_down(self, value):
        if value[0] == "elem":
            content = self.child.attribute(value[1], self.content_var)
            child = self.child.v_down(content)
            return ("sub", child) if child is not None else None
        child = self.child.v_down(value[1])
        return ("sub", child) if child is not None else None

    def v_right(self, value):
        if value[0] == "elem":
            return None  # the created element is a value root
        sibling = self.child.v_right(value[1])
        return ("sub", sibling) if sibling is not None else None

    def v_fetch(self, value):
        if value[0] == "elem":
            if self.label_const is not None:
                return self.label_const
            label_vid = self.child.attribute(value[1], self.label_var)
            return value_text_of(self.child, label_vid)
        return self.child.v_fetch(value[1])

    def v_select(self, value, predicate):
        if value[0] == "elem":
            return None  # the created element is a value root
        found = self.child.v_select(value[1], predicate)
        return ("sub", found) if found is not None else None
