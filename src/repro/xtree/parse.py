"""A small XML parser producing :class:`repro.xtree.tree.Tree` values.

The paper abstracts XML to labeled ordered trees and (for simplicity)
excludes attributes from the formal model, while the MIX implementation
incorporates them.  We follow the implementation: attributes of an
element ``e`` are represented as leading children of ``e`` labeled
``@name`` whose single child is the attribute value -- a lossless,
order-stable encoding that keeps the rest of the system attribute-free.

Supported XML subset:

* elements with attributes, text content, self-closing tags
* the five predefined entities plus decimal/hex character references
* comments ``<!-- ... -->``, processing instructions, XML declaration,
  DOCTYPE (all skipped), and CDATA sections
* configurable whitespace policy (whitespace-only text dropped by
  default, as mediated views care about structure rather than layout)

This is intentionally not a validating parser; it is a substrate with
predictable behaviour for the mediator stack above it.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from .errors import XMLParseError
from .tree import Tree

__all__ = ["parse_xml", "ATTRIBUTE_PREFIX"]

#: Children produced from XML attributes carry this label prefix.
ATTRIBUTE_PREFIX = "@"

_NAME_RE = re.compile(r"[A-Za-z_:][-A-Za-z0-9._:]*")
_ENTITY_RE = re.compile(r"&(#x?[0-9A-Fa-f]+|[A-Za-z]+);")

_NAMED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "quot": '"',
    "apos": "'",
}


def _decode_entities(text: str, position: int) -> str:
    """Replace entity and character references in ``text``."""

    def repl(match: "re.Match[str]") -> str:
        body = match.group(1)
        if body.startswith("#x") or body.startswith("#X"):
            return chr(int(body[2:], 16))
        if body.startswith("#"):
            return chr(int(body[1:]))
        try:
            return _NAMED_ENTITIES[body]
        except KeyError:
            raise XMLParseError(
                "unknown entity &%s;" % body, position
            ) from None

    return _ENTITY_RE.sub(repl, text)


class _Scanner:
    """Cursor over the raw XML text with error-position tracking."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.length = len(text)

    def eof(self) -> bool:
        return self.pos >= self.length

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < self.length else ""

    def startswith(self, token: str) -> bool:
        return self.text.startswith(token, self.pos)

    def expect(self, token: str) -> None:
        if not self.startswith(token):
            raise XMLParseError("expected %r" % token, self.pos)
        self.pos += len(token)

    def skip_whitespace(self) -> None:
        while self.pos < self.length and self.text[self.pos].isspace():
            self.pos += 1

    def read_until(self, token: str, what: str) -> str:
        end = self.text.find(token, self.pos)
        if end < 0:
            raise XMLParseError("unterminated %s" % what, self.pos)
        chunk = self.text[self.pos:end]
        self.pos = end + len(token)
        return chunk

    def read_name(self) -> str:
        match = _NAME_RE.match(self.text, self.pos)
        if not match:
            raise XMLParseError("expected a name", self.pos)
        self.pos = match.end()
        return match.group(0)


class _Parser:
    def __init__(self, text: str, keep_whitespace: bool,
                 keep_attributes: bool):
        self.scan = _Scanner(text)
        self.keep_whitespace = keep_whitespace
        self.keep_attributes = keep_attributes

    # -- misc markup ---------------------------------------------------
    def _skip_misc(self) -> None:
        """Skip comments, PIs, declarations and inter-markup whitespace."""
        scan = self.scan
        while True:
            scan.skip_whitespace()
            if scan.startswith("<!--"):
                scan.pos += 4
                scan.read_until("-->", "comment")
            elif scan.startswith("<?"):
                scan.pos += 2
                scan.read_until("?>", "processing instruction")
            elif scan.startswith("<!DOCTYPE"):
                self._skip_doctype()
            else:
                return

    def _skip_doctype(self) -> None:
        scan = self.scan
        depth = 0
        while not scan.eof():
            ch = scan.peek()
            scan.pos += 1
            if ch == "<":
                depth += 1
            elif ch == ">":
                depth -= 1
                if depth == 0:
                    return
        raise XMLParseError("unterminated DOCTYPE", scan.pos)

    # -- attributes ----------------------------------------------------
    def _parse_attributes(self) -> List[Tuple[str, str]]:
        scan = self.scan
        attrs: List[Tuple[str, str]] = []
        while True:
            scan.skip_whitespace()
            ch = scan.peek()
            if ch in (">", "/", "?", ""):
                return attrs
            name = scan.read_name()
            scan.skip_whitespace()
            scan.expect("=")
            scan.skip_whitespace()
            quote = scan.peek()
            if quote not in ("'", '"'):
                raise XMLParseError(
                    "attribute value must be quoted", scan.pos
                )
            scan.pos += 1
            value = scan.read_until(quote, "attribute value")
            attrs.append((name, _decode_entities(value, scan.pos)))

    # -- elements ------------------------------------------------------
    def parse_element(self) -> Tree:
        scan = self.scan
        scan.expect("<")
        tag = scan.read_name()
        attrs = self._parse_attributes()
        scan.skip_whitespace()

        children: List[Tree] = []
        if self.keep_attributes:
            children.extend(
                Tree(ATTRIBUTE_PREFIX + name, [Tree(value)] if value else [])
                for name, value in attrs
            )

        if scan.startswith("/>"):
            scan.pos += 2
            return Tree(tag, children)
        scan.expect(">")

        children.extend(self._parse_content(tag))
        return Tree(tag, children)

    def _parse_content(self, open_tag: str) -> List[Tree]:
        scan = self.scan
        children: List[Tree] = []
        text_parts: List[str] = []

        def flush_text() -> None:
            if not text_parts:
                return
            text = "".join(text_parts)
            text_parts.clear()
            if not self.keep_whitespace:
                if not text.strip():
                    return
                text = text.strip()
            children.append(Tree(text))

        while True:
            if scan.eof():
                raise XMLParseError(
                    "unexpected end of input inside <%s>" % open_tag,
                    scan.pos,
                )
            if scan.startswith("</"):
                flush_text()
                scan.pos += 2
                close_tag = scan.read_name()
                scan.skip_whitespace()
                scan.expect(">")
                if close_tag != open_tag:
                    raise XMLParseError(
                        "mismatched closing tag </%s> for <%s>"
                        % (close_tag, open_tag),
                        scan.pos,
                    )
                return children
            if scan.startswith("<!--"):
                scan.pos += 4
                scan.read_until("-->", "comment")
            elif scan.startswith("<![CDATA["):
                scan.pos += 9
                text_parts.append(scan.read_until("]]>", "CDATA section"))
            elif scan.startswith("<?"):
                scan.pos += 2
                scan.read_until("?>", "processing instruction")
            elif scan.peek() == "<":
                flush_text()
                children.append(self.parse_element())
            else:
                start = scan.pos
                end = scan.text.find("<", start)
                if end < 0:
                    end = scan.length
                raw = scan.text[start:end]
                scan.pos = end
                text_parts.append(_decode_entities(raw, start))

    def parse_document(self) -> Tree:
        self._skip_misc()
        if not self.scan.startswith("<"):
            raise XMLParseError("document has no root element", self.scan.pos)
        root = self.parse_element()
        self._skip_misc()
        if not self.scan.eof():
            raise XMLParseError(
                "trailing content after root element", self.scan.pos
            )
        return root


def parse_xml(text: str, keep_whitespace: bool = False,
              keep_attributes: bool = True) -> Tree:
    """Parse an XML document string into a :class:`Tree`.

    Parameters
    ----------
    text:
        The XML document (a single root element, optionally preceded by
        an XML declaration / DOCTYPE / comments).
    keep_whitespace:
        When False (default), whitespace-only text nodes are dropped and
        mixed-content text is stripped.
    keep_attributes:
        When True (default), each attribute ``name="v"`` becomes a
        leading child ``@name[v]`` of its element; when False attributes
        are discarded, matching the paper's formal model.
    """
    return _Parser(text, keep_whitespace, keep_attributes).parse_document()
