"""Lists of variable bindings, the values flowing through the algebra.

The XMAS algebra operators "input lists of variable bindings and
produce new lists of bindings" (paper Section 3).  The paper represents
a binding list as a tree::

    bs[ b[ X[x1], Y[y1] ],  b[ X[x2], Y[y2] ] ]

whose value subtrees are *shared with the input documents* (footnote 7)
-- node identity must be preserved for grouping, duplicate elimination
and order preservation.  We model bindings as immutable ordered
var->Tree maps whose Tree values are shared references, and provide the
conversion to/from the paper's ``bs``/``b`` tree encoding.

Grouped collections are trees labeled ``list`` (the paper's reserved
label): ``LSs[ list[school1, school2] ]``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..xtree.tree import Tree

__all__ = ["Binding", "BindingList", "LIST_LABEL", "make_list_value",
           "value_key", "value_text"]

#: The reserved label for grouped/concatenated collections.
LIST_LABEL = "list"


class Binding:
    """One variable binding ``b[X[x], Y[y], ...]``: an immutable ordered
    map from variable names to shared Tree values."""

    __slots__ = ("_items", "_index")

    def __init__(self, items: Iterable[Tuple[str, Tree]] = ()):
        self._items: Tuple[Tuple[str, Tree], ...] = tuple(items)
        self._index: Dict[str, Tree] = dict(self._items)
        if len(self._index) != len(self._items):
            raise ValueError("duplicate variable in binding: %s"
                             % [name for name, _ in self._items])

    # -- access -----------------------------------------------------------
    def value(self, var: str) -> Tree:
        """The tree bound to ``var`` (paper's ``b_i.X``)."""
        try:
            return self._index[var]
        except KeyError:
            raise KeyError(
                "no variable %s in binding over %s"
                % (var, list(self._index))
            ) from None

    def get(self, var: str) -> Optional[Tree]:
        return self._index.get(var)

    @property
    def variables(self) -> List[str]:
        return [name for name, _ in self._items]

    def items(self) -> Tuple[Tuple[str, Tree], ...]:
        return self._items

    def __contains__(self, var: str) -> bool:
        return var in self._index

    # -- derivation --------------------------------------------------------
    def extend(self, var: str, value: Tree) -> "Binding":
        """The paper's ``b_i + X[v]``: a new binding with one more
        variable."""
        if var in self._index:
            raise ValueError("binding already has variable %s" % var)
        return Binding(self._items + ((var, value),))

    def project(self, variables: Sequence[str]) -> "Binding":
        """Keep only ``variables`` (in the given order)."""
        return Binding(tuple((v, self.value(v)) for v in variables))

    # -- comparison ----------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Binding):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return hash(tuple((name, value_key(val))
                          for name, val in self._items))

    def __repr__(self) -> str:
        inner = ", ".join(
            "%s[%s]" % (name, value.sexpr(max_depth=2))
            for name, value in self._items
        )
        return "b[%s]" % inner


class BindingList:
    """An ordered list of bindings (``bs[...]``), with a fixed variable
    schema shared by all bindings."""

    def __init__(self, bindings: Iterable[Binding] = (),
                 variables: Optional[Sequence[str]] = None):
        self.bindings: List[Binding] = list(bindings)
        if variables is not None:
            self.variables = list(variables)
        elif self.bindings:
            self.variables = self.bindings[0].variables
        else:
            self.variables = []
        for binding in self.bindings:
            if binding.variables != self.variables:
                raise ValueError(
                    "binding schema %s differs from list schema %s"
                    % (binding.variables, self.variables)
                )

    def append(self, binding: Binding) -> None:
        if not self.bindings and not self.variables:
            self.variables = binding.variables
        elif binding.variables != self.variables:
            raise ValueError(
                "binding schema %s differs from list schema %s"
                % (binding.variables, self.variables)
            )
        self.bindings.append(binding)

    def __len__(self) -> int:
        return len(self.bindings)

    def __iter__(self) -> Iterator[Binding]:
        return iter(self.bindings)

    def __getitem__(self, index: int) -> Binding:
        return self.bindings[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BindingList):
            return NotImplemented
        return (self.variables == other.variables
                and self.bindings == other.bindings)

    def __repr__(self) -> str:
        return "bs[%s]" % ", ".join(repr(b) for b in self.bindings)

    # -- tree encoding ---------------------------------------------------
    def to_tree(self) -> Tree:
        """Encode as the paper's ``bs[b[...], ...]`` tree (sharing the
        value subtrees)."""
        return Tree("bs", [
            Tree("b", [Tree(name, [value]) for name, value in b.items()])
            for b in self.bindings
        ])

    @classmethod
    def from_tree(cls, tree: Tree) -> "BindingList":
        """Decode a ``bs[b[X[v], ...], ...]`` tree."""
        if tree.label != "bs":
            raise ValueError("expected a bs[...] tree, got %r" % tree.label)
        bindings = []
        for b_node in tree.children:
            if b_node.label != "b":
                raise ValueError("expected b[...] children in bs tree")
            items = []
            for var_node in b_node.children:
                if len(var_node.children) != 1:
                    raise ValueError(
                        "variable node %s must wrap exactly one value"
                        % var_node.label
                    )
                items.append((var_node.label, var_node.child(0)))
            bindings.append(Binding(items))
        return cls(bindings)


# ----------------------------------------------------------------------
# Grouped list values
# ----------------------------------------------------------------------

def make_list_value(items: Sequence[Tree]) -> Tree:
    """A ``list[...]`` collection node over shared item subtrees."""
    return Tree(LIST_LABEL, items)


# ----------------------------------------------------------------------
# Value comparison helpers
# ----------------------------------------------------------------------

def value_key(value: Tree):
    """A hashable canonical key realizing structural value equality.

    Grouping, duplicate elimination and set operators compare *values*;
    shared nodes compare equal trivially, and equal trees from
    different sources also coincide, matching XML value semantics.
    """
    if value.is_leaf:
        return value.label
    return (value.label, tuple(value_key(c) for c in value.children))


def value_text(value: Tree) -> str:
    """The string value used by comparison predicates: the label of a
    leaf, else the concatenated leaf text."""
    return value.text() if not value.is_leaf else value.label
