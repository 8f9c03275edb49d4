"""Lazy mediators (paper Section 3 + Appendix A): every XMAS algebra
operator implemented as a navigation transducer, plus the virtual
answer document and the algebra-to-lazy plan builder."""

from .base import (
    BindingsDocument,
    LazyError,
    LazyOperator,
    canonical_key_of,
    materialize_value,
    value_text_of,
)
from .build import build_lazy_plan, build_virtual_document
from .concat import LazyConcatenate
from .createelem import LazyCreateElement
from .document import VirtualDocument
from .getdesc import LazyGetDescendants
from .groupby import LazyGroupBy
from .join import LazyJoin
from .materialize_op import LazyMaterialize
from .observe import SpannedOperator
from .orderby import LazyOrderBy
from .select import LazyConstant, LazySelect
from .setops import LazyDifference, LazyDistinct, LazyUnion
from .source import LazySource

__all__ = [
    "LazyOperator", "LazyError", "BindingsDocument",
    "value_text_of", "canonical_key_of", "materialize_value",
    "LazySource", "LazyGetDescendants", "LazySelect",
    "LazyConstant", "LazyJoin", "LazyGroupBy", "LazyConcatenate",
    "LazyCreateElement", "LazyOrderBy", "LazyMaterialize",
    "LazyUnion", "LazyDifference",
    "LazyDistinct", "SpannedOperator",
    "VirtualDocument", "build_lazy_plan", "build_virtual_document",
]
