"""Lexer and recursive-descent parser for XMAS queries.

The concrete syntax follows Figure 3 of the paper::

    CONSTRUCT <answer>
                <med_home> $H $S {$S} </med_home> {$H}
              </answer> {}
    WHERE homesSrc homes.home $H AND $H zip._ $V1
      AND schoolsSrc schools.school $S AND $S zip._ $V2
      AND $V1 = $V2

``%`` starts a comment running to the end of the line.  Keywords are
case-insensitive.

Tree patterns -- the XML-QL-style sugar of the paper's footnote 6 --
are supported and desugar to path conditions::

    <homes> $H: <home> <zip>$V1</zip> </home> </homes> IN homesSrc

is parsed as ``homesSrc homes.home $H AND $H zip._ $V1``.  Binders
``$X:`` may sit on any pattern element; unbound intermediate elements
get fresh internal variables.  (Because ``IN`` is a keyword, sources
and path labels named ``in`` need the plain condition form.)
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple, Union

from ..xtree.errors import PathSyntaxError
from ..xtree.path import MAX_CONDITIONS, MAX_NESTING, parse_path
from .ast import (
    ComparisonCondition,
    Condition,
    ElementTemplate,
    LiteralContent,
    PathCondition,
    VarUse,
    XMASQuery,
)

__all__ = ["parse_xmas", "XMASSyntaxError"]


from ..errors import ReproError


class XMASSyntaxError(ReproError):
    """Raised when an XMAS query cannot be parsed."""


_TOKEN_RE = re.compile(
    r"""
    (?P<comment>%[^\n]*)
  | (?P<ws>\s+)
  | (?P<close></[A-Za-z_][-\w.]*\s*>)
  | (?P<open><[A-Za-z_][-\w.]*\s*>)
  | (?P<var>\$[A-Za-z_]\w*)
  | (?P<string>"[^"]*"|'[^']*')
  | (?P<op>!=|<=|>=|=|<|>)
  | (?P<punct>[{},:])
  | (?P<word>[A-Za-z0-9_@(][A-Za-z0-9_@.*+?|()]*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"construct", "where", "and", "order", "by",
             "desc", "asc", "in"}


def _tokenize(text: str) -> List[Tuple[str, str]]:
    tokens: List[Tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match:
            raise XMASSyntaxError(
                "cannot tokenize XMAS query at %r" % text[pos:pos + 25])
        pos = match.end()
        kind = match.lastgroup
        if kind in ("comment", "ws"):
            continue
        value = match.group(kind)
        if kind == "word" and value.lower() in _KEYWORDS:
            tokens.append(("kw", value.lower()))
        elif kind == "open":
            tokens.append(("open", value[1:-1].strip()))
        elif kind == "close":
            tokens.append(("close", value[2:-1].strip()))
        elif kind == "var":
            tokens.append(("var", value[1:]))
        elif kind == "string":
            tokens.append(("string", value[1:-1]))
        else:
            tokens.append((kind, value))
    return tokens


class _Parser:
    def __init__(self, tokens: List[Tuple[str, str]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Optional[Tuple[str, str]]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) \
            else None

    def next(self) -> Tuple[str, str]:
        token = self.peek()
        if token is None:
            raise XMASSyntaxError("unexpected end of query")
        self.pos += 1
        return token

    def expect(self, kind: str, value: Optional[str] = None) -> str:
        token = self.next()
        if token[0] != kind or (value is not None and token[1] != value):
            raise XMASSyntaxError(
                "expected %s%s, got %r"
                % (kind, " %r" % value if value else "", token[1]))
        return token[1]

    def open_tag(self, depth: int) -> str:
        """The next element's tag, ``depth`` elements deep."""
        tag = self.expect("open")
        if depth > MAX_NESTING:
            raise XMASSyntaxError("<%s> nests deeper than %d elements"
                                  % (tag, MAX_NESTING))
        return tag

    def at(self, kind: str, value: Optional[str] = None) -> bool:
        token = self.peek()
        return (token is not None and token[0] == kind
                and (value is None or token[1] == value))

    # -- grammar ----------------------------------------------------------
    def parse_query(self) -> XMASQuery:
        self.expect("kw", "construct")
        head = self.parse_element()
        if head.group is None:
            raise XMASSyntaxError(
                "the outermost constructed element needs a group marker "
                "(usually '{}')")
        self.expect("kw", "where")
        conditions = list(self.parse_condition_group())
        while self.at("kw", "and"):
            self.next()
            conditions.extend(self.parse_condition_group())
        if len(conditions) > MAX_CONDITIONS:
            raise XMASSyntaxError(
                "the WHERE clause holds %d conditions, more than %d"
                % (len(conditions), MAX_CONDITIONS))
        order_by = []
        if self.at("kw", "order"):
            self.next()
            self.expect("kw", "by")
            order_by.append(self.parse_order_key())
            while self.at("punct", ","):
                self.next()
                order_by.append(self.parse_order_key())
        if self.peek() is not None:
            raise XMASSyntaxError(
                "trailing tokens after the query: %r"
                % (self.peek()[1],))
        return XMASQuery(head, conditions, order_by)

    def parse_order_key(self):
        var = self.expect("var")
        descending = False
        if self.at("kw", "desc"):
            self.next()
            descending = True
        elif self.at("kw", "asc"):
            self.next()
        return (var, descending)

    def parse_element(self, depth: int = 1) -> ElementTemplate:
        tag = self.open_tag(depth)
        children: List[Union[ElementTemplate, VarUse, LiteralContent]] = []
        while not self.at("close"):
            if self.at("open"):
                children.append(self.parse_element(depth + 1))
            elif self.at("var"):
                name = self.next()[1]
                group = self.parse_group_opt()
                children.append(VarUse(name, group))
            elif self.at("string"):
                children.append(LiteralContent(self.next()[1]))
            elif self.at("word"):
                children.append(LiteralContent(self.next()[1]))
            else:
                token = self.peek()
                raise XMASSyntaxError(
                    "unexpected %r inside <%s>"
                    % (token[1] if token else "end of input", tag))
        closing = self.expect("close")
        if closing != tag:
            raise XMASSyntaxError(
                "mismatched </%s> for <%s>" % (closing, tag))
        group = self.parse_group_opt()
        return ElementTemplate(tag, children, group)

    def parse_group_opt(self) -> Optional[List[str]]:
        if not self.at("punct", "{"):
            return None
        self.next()
        names: List[str] = []
        if self.at("var"):
            names.append(self.next()[1])
            while self.at("punct", ","):
                self.next()
                names.append(self.expect("var"))
        self.expect("punct", "}")
        return names

    def parse_condition_group(self) -> List[Condition]:
        """One AND-conjunct: a plain condition, or a tree pattern
        (which desugars to several path conditions)."""
        if self.at("open") or (self.at("var")
                               and self._next_is_colon()):
            return self.parse_pattern_condition()
        return [self.parse_condition()]

    def _next_is_colon(self) -> bool:
        nxt = (self.tokens[self.pos + 1]
               if self.pos + 1 < len(self.tokens) else None)
        return nxt == ("punct", ":")

    # -- tree patterns (footnote 6) -------------------------------------
    def parse_pattern_condition(self) -> List[Condition]:
        root_binder = None
        if self.at("var"):
            root_binder = self.next()[1]
            self.expect("punct", ":")
        root = self.parse_pattern_element()
        self.expect("kw", "in")
        source = self.expect("word")
        counter = [0]

        def fresh() -> str:
            counter[0] += 1
            return "_pat%d" % counter[0]

        return _desugar_pattern(root, root_binder, source, fresh)

    def parse_pattern_element(self, depth: int = 1):
        tag = self.open_tag(depth)
        items = []
        while not self.at("close"):
            if self.at("var"):
                name = self.next()[1]
                if self.at("punct", ":"):
                    self.next()
                    items.append((name,
                                  self.parse_pattern_element(depth + 1)))
                else:
                    items.append(("$", name))  # bare content variable
            elif self.at("open"):
                items.append((None,
                              self.parse_pattern_element(depth + 1)))
            else:
                token = self.peek()
                raise XMASSyntaxError(
                    "unexpected %r inside pattern <%s>"
                    % (token[1] if token else "end of input", tag))
        closing = self.expect("close")
        if closing != tag:
            raise XMASSyntaxError(
                "mismatched </%s> for pattern <%s>" % (closing, tag))
        return _PatternElement(tag, items)

    def parse_condition(self) -> Condition:
        if self.at("var"):
            left = self.next()[1]
            if self.at("op"):
                op = self.next()[1]
                return ComparisonCondition(left, op, self._operand())
            # $X path $Y
            path_text = self.expect("word")
            var = self.expect("var")
            return PathCondition(("var", left),
                                 self._path(path_text), var)
        if self.at("word"):
            source = self.next()[1]
            path_text = self.expect("word")
            var = self.expect("var")
            return PathCondition(source, self._path(path_text), var)
        token = self.peek()
        raise XMASSyntaxError(
            "expected a condition, got %r"
            % (token[1] if token else "end of input"))

    def _operand(self) -> Union[str, Tuple[str, str]]:
        if self.at("var"):
            return ("var", self.next()[1])
        if self.at("string") or self.at("word"):
            return self.next()[1]
        token = self.peek()
        raise XMASSyntaxError(
            "expected a comparison operand, got %r"
            % (token[1] if token else "end of input"))

    def _path(self, text: str):
        try:
            return parse_path(text)
        except PathSyntaxError as err:
            raise XMASSyntaxError(
                "bad path expression %r: %s" % (text, err)) from None


class _PatternElement:
    """An element of a tree pattern: a tag plus items, where an item is
    ``("$", var)`` for bare content variables or
    ``(binder_or_None, _PatternElement)`` for nested elements."""

    __slots__ = ("tag", "items")

    def __init__(self, tag, items):
        self.tag = tag
        self.items = items


def _pattern_path(labels):
    """A path AST from a list of labels, '_' meaning wildcard."""
    from ..xtree.path import Label, Seq, Wildcard
    parts = tuple(Wildcard() if l == "_" else Label(l) for l in labels)
    return parts[0] if len(parts) == 1 else Seq(parts)


def _desugar_pattern(root: _PatternElement, root_binder, source,
                     fresh) -> List[Condition]:
    """Rewrite a tree pattern into equivalent path conditions."""
    out: List[Condition] = []
    if root_binder is not None:
        out.append(PathCondition(source, _pattern_path([root.tag]),
                                 root_binder))
        _desugar_items(root, ("var", root_binder), [], out, fresh)
    else:
        _desugar_items(root, source, [root.tag], out, fresh)
    return out


def _desugar_items(element: _PatternElement, base, prefix, out,
                   fresh) -> None:
    for item in element.items:
        kind, payload = item
        if kind == "$":
            out.append(PathCondition(
                base, _pattern_path(prefix + ["_"]), payload))
            continue
        binder, sub = kind, payload
        only_content_var = (
            binder is None and len(sub.items) == 1
            and sub.items[0][0] == "$")
        if only_content_var:
            # The footnote's exact shortcut: <zip>$V</zip> under $H
            # becomes  $H zip._ $V.
            out.append(PathCondition(
                base, _pattern_path(prefix + [sub.tag, "_"]),
                sub.items[0][1]))
            continue
        var = binder if binder is not None else fresh()
        out.append(PathCondition(
            base, _pattern_path(prefix + [sub.tag]), var))
        _desugar_items(sub, ("var", var), [], out, fresh)


def parse_xmas(text: str) -> XMASQuery:
    """Parse an XMAS query string into its AST."""
    return _Parser(_tokenize(text)).parse_query()
