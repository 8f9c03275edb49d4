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

The created element is the operator's one value id, ``(owner,
binding)``; its children, and every other variable, are the input's
own ids.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from ..runtime.context import ExecutionContext
from .base import LazyOperator, UnaryOperator, value_text_of

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
            self.label_var: Optional[str] = label[1]
            self.label_const: Optional[str] = None
        else:
            self.label_var = None
            self.label_const = label
        self.content_var = content_var
        self.out_var = out_var
        self.variables = child.variables + [out_var]

    # -- attributes (bindings map 1:1: the pass-through shape) ---------------
    def attribute(self, binding, var):
        if var == self.out_var:
            return (self.spanned or self, binding)
        return UnaryOperator.attribute(self, binding, var)

    # -- values: the created element ------------------------------------
    def v_down(self, value):
        content = self.child.attribute(value[1], self.content_var)
        return content[0].v_down(content)

    def v_right(self, value):
        return None  # the created element is a value root

    def v_fetch(self, value):
        if self.label_const is not None:
            return self.label_const
        return value_text_of(self.child.attribute(value[1],
                                                  self.label_var))

    def v_select(self, value, predicate):
        return None  # the created element is a value root
