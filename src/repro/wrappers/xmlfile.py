"""The XML-file wrapper: native XML sources through LXP.

A thin veneer over :class:`~repro.buffer.lxp.TreeLXPServer` that also
parses raw XML text and wraps the document in the exported document
node (labeled with the source name) whose children the mediator's path
expressions start from.
"""

from __future__ import annotations

from typing import Optional, Union

from ..buffer.holes import Fragments, LXPProtocolError, fragment_of_tree
from ..buffer.lxp import TreeLXPServer
from ..pushdown.compiled import CompiledSubplan, XPathScanRequest
from ..xtree.parse import parse_xml
from ..xtree.tree import Tree

__all__ = ["XMLFileWrapper", "document_node"]


def document_node(source_name: str, root: Tree) -> Tree:
    """Wrap a root element into the exported document node.

    The convention throughout the system: a source exports a root node
    whose children are the document's top-level elements, so paths like
    ``homes.home`` include the element name of the document root.
    """
    return Tree(source_name, [root])


class XMLFileWrapper(TreeLXPServer):
    """LXP server over an XML document (string or parsed tree).

    ``chunk_size``/``depth`` control the export granularity exactly as
    in TreeLXPServer.
    """

    def __init__(self, source_name: str,
                 document: Union[str, Tree],
                 chunk_size: int = 10, depth: int = 1000000):
        if isinstance(document, str):
            document = parse_xml(document)
        super().__init__(document_node(source_name, document),
                         chunk_size=chunk_size, depth=depth)
        self.source_name = source_name

    # -- pushdown -------------------------------------------------------------
    def push_compile(self, compiled: CompiledSubplan
                     ) -> Optional[XPathScanRequest]:
        """Compile a chain into one XPath-style scan of the document.

        The document is already a single tree, so the native
        evaluation is one scan shipping it whole: the request records
        the chain's paths (the scan's guides, and what an XPath
        engine would receive), and the LXP chunk/depth dialogue
        disappears entirely.
        """
        return XPathScanRequest(
            self.source_name,
            tuple(str(step.path) for step in compiled.steps))

    def push(self, request: XPathScanRequest) -> Fragments:
        """Evaluate a compiled scan: the complete document node."""
        if not isinstance(request, XPathScanRequest) or \
                request.source != self.source_name:
            raise LXPProtocolError(
                "request %r does not belong to source %r"
                % (request, self.source_name))
        return fragment_of_tree(self.tree)
