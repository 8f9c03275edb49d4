"""The HTML/Web LXP wrapper over the synthetic web substrate.

The exported view of a paginated catalog site is one element holding
*all* items of the listing, with the pagination dissolved::

    sitename[ item, item, ..., hole ]

The wrapper fetches pages on demand through the cost-charging
:class:`~repro.webstore.site.HttpSimulator`; each fill ships one whole
page of items ("a wrapper for Web (HTML) sources may ship data at a
page-at-a-time granularity") and leaves a hole carrying the next-page
URL.  Following the chain of ``next`` links lazily is what lets a
client browse the first results of a huge bookseller listing without
downloading the catalog.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..buffer.holes import Fragments, LXPProtocolError, fragment_of_tree
from ..buffer.lxp import LXPServer, LXPStats, measure_fragment
from ..pushdown.compiled import CompiledSubplan, PageFetchRequest
from ..webstore.site import HttpSimulator
from ..xtree.tree import Tree

__all__ = ["WebLXPWrapper"]


class WebLXPWrapper(LXPServer):
    """LXP server over a paginated web site.

    Parameters
    ----------
    http:
        The HttpSimulator wired to the site (carries the traffic
        stats the experiments read).
    first_page:
        URL of the first listing page.
    root_label:
        Label of the exported root element (defaults to the site name).
    """

    NEXT_LABEL = "next"

    def __init__(self, http: HttpSimulator, first_page: str = "/page/0",
                 root_label: Optional[str] = None):
        self.http = http
        self.first_page = first_page
        self.root_label = root_label or http.site.name
        self.stats = LXPStats()

    def get_root(self) -> Fragments:
        return Fragments.hole(("page", self.first_page, True))

    def _page_items(self, url: str
                    ) -> Tuple[List[Tree], Optional[str]]:
        """One page fetch: its item trees and the next page's URL."""
        page = self.http.fetch(url)
        items = []
        next_url = None
        for child in page.children:
            if child.label == self.NEXT_LABEL:
                next_url = child.text()
            else:
                items.append(child)
        return items, next_url

    # -- pushdown -------------------------------------------------------------
    def push_compile(self, compiled: CompiledSubplan
                     ) -> Optional[PageFetchRequest]:
        """Compile any chain into one drain of the page chain.

        A paginated listing offers no finer native operation than
        "follow the next links to the end", so every chain compiles to
        the same request; the gain is collapsing the per-page LXP
        dialogue into a single round that the mediator then navigates
        buffer-locally.
        """
        del compiled  # every chain compiles to the full drain
        return PageFetchRequest(self.first_page)

    def push(self, request: PageFetchRequest) -> Fragments:
        """Fetch the whole listing in one request chain and return the
        dissolved-pagination export as one hole-free reply."""
        if not isinstance(request, PageFetchRequest):
            raise LXPProtocolError("unknown request %r" % (request,))
        runs: List[Fragments] = []
        url: Optional[str] = request.first_page
        while url is not None:
            items, url = self._page_items(url)
            runs += map(fragment_of_tree, items)
        return Fragments.element(self.root_label, *runs)

    def fill(self, hole_id) -> Fragments:
        try:
            kind, url, is_root = hole_id
        except (TypeError, ValueError):
            raise LXPProtocolError("unknown hole id %r" % (hole_id,))
        if kind != "page":
            raise LXPProtocolError("unknown hole id %r" % (hole_id,))
        items, next_url = self._page_items(url)
        runs = [fragment_of_tree(item) for item in items]
        if next_url is not None:
            runs.append(Fragments.hole(("page", next_url, False)))
        reply = Fragments.join(runs)
        if is_root:
            reply = Fragments.element(self.root_label, reply)
        measure_fragment(self.stats, reply)
        return reply
