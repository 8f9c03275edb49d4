"""The lazy side of the ``Materialize`` operator: an intermediate
eager step inside an otherwise lazy plan (paper Section 6).

On the first binding-level access the operator drains its input
completely -- bindings and value trees -- into memory; everything
afterwards (including value navigation) is served locally, costing
zero source navigations.  This is the right trade exactly when the
subplan below is unbrowsable: the full input scan was unavoidable, so
buffering its result makes the *rest* of the session free.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..runtime.cache import MISS
from ..runtime.context import ExecutionContext
from ..xtree.tree import Tree
from .base import LazyOperator, materialize_value

__all__ = ["LazyMaterialize"]


class LazyMaterialize(LazyOperator):
    """Buffer the child's bindings on first touch; buffer each value
    tree on first access.

    The binding *list* is drained eagerly (the subplan below is
    unbrowsable, so that scan was unavoidable); each variable's value
    tree is materialized only when some navigation first needs it --
    untouched variables (e.g. the source-root binding the construction
    never looks at) cost nothing.

    Value ids are ``(owner, binding_index, var_index, path)``, where
    ``path`` is the child-index path from the buffered value tree's
    root to the node.
    """

    def __init__(self, child: LazyOperator,
                 context: Optional[ExecutionContext] = None):
        super().__init__(context)
        self.child = child
        self.variables = list(child.variables)
        self._bindings: Optional[List[object]] = None
        #: the buffered value trees; an explicit eager step is
        #: evaluation state, not an optional cache, so the store is
        #: registered as kind="state" (always on, never evicted)
        self._values = self.ctx.caches.cache("materialize.values",
                                             kind="state")

    def _force(self) -> List[object]:
        """Drain the child's binding ids (the unavoidable full scan)."""
        if self._bindings is not None:
            return self._bindings
        bindings: List[object] = []
        binding = self.child.first_binding()
        while binding is not None:
            bindings.append(binding)
            binding = self.child.next_binding(binding)
        self._bindings = bindings
        return bindings

    def _tree(self, binding_index: int, var_index: int) -> Tree:
        """The buffered value tree (materialized on first access)."""
        key = (binding_index, var_index)
        tree = self._values.get(key, MISS)
        if tree is MISS:
            child_binding = self._force()[binding_index]
            tree = materialize_value(
                self.child.attribute(child_binding,
                                     self.variables[var_index]))
            self._values.put(key, tree)
        return tree

    def _node(self, binding_index: int, var_index: int,
              path: Tuple[int, ...]) -> Tree:
        node = self._tree(binding_index, var_index)
        for index in path:
            node = node.child(index)
        return node

    # -- bindings ----------------------------------------------------------
    def first_binding(self):
        return ("b", 0) if self._force() else None

    def next_binding(self, binding):
        index = binding[1] + 1
        return ("b", index) if index < len(self._force()) else None

    def attribute(self, binding, var):
        self._check_var(var)
        return (self.spanned or self, binding[1],
                self.variables.index(var), ())

    # -- values --------------------------------------------------------------
    def v_down(self, value):
        owner, b, v, path = value
        if self._node(b, v, path).is_leaf:
            return None
        return (owner, b, v, path + (0,))

    def v_right(self, value):
        owner, b, v, path = value
        if not path:
            return None  # value roots have no siblings
        parent = self._node(b, v, path[:-1])
        index = path[-1] + 1
        if index >= len(parent.children):
            return None
        return (owner, b, v, path[:-1] + (index,))

    def v_fetch(self, value):
        _, b, v, path = value
        return self._node(b, v, path).label
