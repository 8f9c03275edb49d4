"""The XMAS algebra (paper Section 3): binding lists, predicates,
operator plan nodes, and the eager reference evaluator."""

from .bindings import (
    LIST_LABEL,
    Binding,
    BindingList,
    make_list_value,
    value_key,
    value_text,
)
from .eager import evaluate, evaluate_bindings, match_descendants
from .operators import (
    Concatenate,
    Constant,
    CreateElement,
    Difference,
    Distinct,
    GetDescendants,
    GroupBy,
    Join,
    Materialize,
    Operator,
    OrderBy,
    PlanError,
    Project,
    Rename,
    Select,
    Source,
    TupleDestroy,
    Union,
    product,
    walk_plan,
)
from .predicates import (
    And,
    Comparison,
    Const,
    Not,
    Or,
    Predicate,
    TruePredicate,
    Var,
    compare_values,
)

__all__ = [
    "Binding", "BindingList", "LIST_LABEL", "make_list_value",
    "value_key", "value_text",
    "Predicate", "Comparison", "And", "Or", "Not", "TruePredicate",
    "Var", "Const", "compare_values",
    "Operator", "Source", "Constant", "GetDescendants", "Select", "Join",
    "product", "Union", "Difference", "Distinct", "Project", "Rename",
    "GroupBy", "Materialize",
    "OrderBy", "Concatenate", "CreateElement", "TupleDestroy",
    "PlanError", "walk_plan",
    "evaluate", "evaluate_bindings", "match_descendants",
]
