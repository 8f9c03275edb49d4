"""XML data model substrate: labeled ordered trees, parsing,
serialization, and regular path expressions.

This is the ``T = D | D[T*]`` abstraction of Section 2 of the paper,
shared by every layer of the MIX reproduction.
"""

from .errors import (
    PathSyntaxError,
    TreeConstructionError,
    XMLParseError,
    XTreeError,
)
from .parse import ATTRIBUTE_PREFIX, parse_xml
from .path import (
    Alt,
    Label,
    Opt,
    PathExpr,
    PathNFA,
    Plus,
    Seq,
    Star,
    Wildcard,
    compile_path,
    naive_match,
    parse_path,
)
from .serialize import escape_attribute, escape_text, to_xml
from .tree import (
    Tree,
    elem,
    leaf,
    preorder,
    tree_size,
)

__all__ = [
    "Tree", "elem", "leaf", "tree_size", "preorder",
    "parse_xml", "ATTRIBUTE_PREFIX",
    "to_xml", "escape_text", "escape_attribute",
    "PathExpr", "Label", "Wildcard", "Seq", "Alt", "Star", "Plus", "Opt",
    "parse_path", "compile_path", "PathNFA", "naive_match",
    "XTreeError", "XMLParseError", "PathSyntaxError",
    "TreeConstructionError",
]
