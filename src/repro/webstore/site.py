"""Synthetic web sites: the stand-in for live HTML sources.

The paper's motivating sources (amazon.com, barnesandnoble.com) are
huge, paginated, and fetched page-at-a-time over a network.  This
module reproduces those *cost characteristics* without a network:

* a :class:`WebSite` maps URLs to page trees (our HTML abstraction is
  the same labeled ordered tree used everywhere else);
* a :class:`HttpSimulator` charges per-request latency and per-byte
  transfer cost in *virtual milliseconds*, and counts both, so the
  granularity experiments (Section 4) can report message counts, bytes
  moved and simulated wall-clock exactly.

Listing generators create paginated catalogs with ``next``-page links,
mirroring a bookseller's result pages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..runtime.counters import Counters
from ..xtree.serialize import to_xml
from ..xtree.tree import Tree, elem

__all__ = ["WebSite", "HttpSimulator", "FetchStats", "WebError",
           "make_catalog_site"]


from ..errors import PermanentSourceError


class WebError(PermanentSourceError):
    """Raised for unknown URLs or sites (a 404 is permanent: the same
    request will keep failing, so the resilience layer never retries
    it)."""


class WebSite:
    """A named collection of pages (URL -> page tree)."""

    def __init__(self, name: str):
        self.name = name
        self._pages: Dict[str, Tree] = {}

    def add_page(self, url: str, page: Tree) -> None:
        self._pages[url] = page

    def page(self, url: str) -> Tree:
        try:
            return self._pages[url]
        except KeyError:
            raise WebError("404: no page %r on site %r"
                           % (url, self.name)) from None

    @property
    def urls(self) -> List[str]:
        return list(self._pages)

    def __len__(self) -> int:
        return len(self._pages)


@dataclass
class FetchStats(Counters):
    """Accumulated cost of HTTP traffic, in virtual units."""

    requests: int = 0
    bytes_transferred: int = 0
    virtual_ms: float = 0.0


class HttpSimulator:
    """Charges latency + bandwidth for each page fetch.

    Parameters
    ----------
    site:
        The site to serve.
    latency_ms:
        Fixed per-request cost (connection setup, round trip).
    ms_per_kb:
        Transfer cost per kilobyte of serialized page.
    """

    def __init__(self, site: WebSite, latency_ms: float = 80.0,
                 ms_per_kb: float = 5.0):
        self.site = site
        self.latency_ms = latency_ms
        self.ms_per_kb = ms_per_kb
        self.stats = FetchStats()

    def fetch(self, url: str) -> Tree:
        """Fetch one page, charging its simulated cost."""
        page = self.site.page(url)
        size = len(to_xml(page))
        self.stats.requests += 1
        self.stats.bytes_transferred += size
        self.stats.virtual_ms += self.latency_ms \
            + self.ms_per_kb * (size / 1024.0)
        return page


def make_catalog_site(
        name: str,
        items: Sequence[Tree],
        page_size: int = 20,
        listing_label: str = "results") -> WebSite:
    """Build a paginated catalog site from a list of item trees.

    Page ``/page/0`` holds the first ``page_size`` items inside a
    ``<results>`` element; every page except the last carries a
    ``<next>`` leaf containing the URL of the following page -- the
    hook the web wrapper follows on demand.
    """
    if page_size <= 0:
        raise ValueError("page_size must be positive")
    site = WebSite(name)
    total_pages = max(1, (len(items) + page_size - 1) // page_size)
    for page_index in range(total_pages):
        start = page_index * page_size
        page_items = list(items[start:start + page_size])
        children: List[Tree] = list(page_items)
        if page_index + 1 < total_pages:
            children.append(elem("next", "/page/%d" % (page_index + 1)))
        site.add_page("/page/%d" % page_index,
                      Tree(listing_label, children))
    return site
