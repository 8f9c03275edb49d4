#!/usr/bin/env python3
"""Browsing a huge paginated Web source through the VXD stack.

A synthetic bookseller site with thousands of result pages is wrapped
by the Web LXP wrapper (page-at-a-time granularity) under the generic
buffer.  The client browses the first results of a broad query; the
simulator accounts every page request, byte, and virtual millisecond --
showing why "materializing the full answer on the client side is not
an option" for Web sources, and what prefetching buys.

Run:  python examples/web_browsing.py
"""

from repro import MIXMediator, WebLXPWrapper, buffered
from repro.bench import book_catalog, browse_first_k, format_table
from repro.navigation import CountingDocument
from repro.webstore import HttpSimulator, make_catalog_site

N_BOOKS = 5000
PAGE_SIZE = 25

QUERY = """
CONSTRUCT <hits> $B {$B} </hits> {}
WHERE amazon book $B AND $B price._ $P AND $P < 12
"""


def build_site():
    books = book_catalog("amazon", N_BOOKS, seed=3)
    return make_catalog_site("amazon", books, page_size=PAGE_SIZE)


def run_browse(k: int, prefetch: int):
    """Browse the first k hits; return the HTTP stats."""
    site = build_site()
    http = HttpSimulator(site, latency_ms=80.0, ms_per_kb=5.0)
    wrapper = WebLXPWrapper(http)
    buffer = buffered(wrapper, prefetch=prefetch) if prefetch else None

    mediator = MIXMediator()
    if buffer is not None:
        mediator.register_source("amazon", buffer)
    else:
        mediator.register_wrapper("amazon", wrapper)
    root = mediator.query(QUERY)
    found = browse_first_k(root, k, per_result=lambda b: b.to_tree())
    return found, http.stats


def main() -> None:
    total_pages = (N_BOOKS + PAGE_SIZE - 1) // PAGE_SIZE
    print("site: %d books across %d pages of %d"
          % (N_BOOKS, total_pages, PAGE_SIZE))
    print()

    rows = []
    for k in (1, 5, 20, 50):
        found, stats = run_browse(k, prefetch=0)
        rows.append([
            k, found, stats.requests,
            "%.1f%%" % (100.0 * stats.requests / total_pages),
            stats.bytes_transferred // 1024,
            round(stats.virtual_ms),
        ])
    print("Demand-driven browsing (no prefetch):")
    print(format_table(
        ["first-k", "hits", "page requests", "of site", "KiB",
         "virtual ms"],
        rows))
    print()

    # What the eager/materializing approach costs on the same site.
    site = build_site()
    http = HttpSimulator(site, latency_ms=80.0, ms_per_kb=5.0)
    mediator = MIXMediator()
    mediator.register_wrapper("amazon", WebLXPWrapper(http))
    answer = mediator.query_eager(QUERY)
    print("Eager baseline: %d hits, %d page requests (the whole "
          "site), %d KiB, %d virtual ms"
          % (len(answer.children), http.stats.requests,
             http.stats.bytes_transferred // 1024,
             round(http.stats.virtual_ms)))
    print()

    # Prefetching overlaps page fetches with client think time.
    print("Prefetching (first-20 browse):")
    rows = []
    for lookahead in (0, 1, 2, 4):
        site = build_site()
        http = HttpSimulator(site)
        buffer = buffered(WebLXPWrapper(http), prefetch=lookahead)
        mediator = MIXMediator()
        mediator.register_source("amazon", buffer)
        root = mediator.query(QUERY)
        browse_first_k(root, 20, per_result=lambda b: b.to_tree())
        stats = buffer.prefetch_stats
        rows.append([lookahead, stats.demand_fills,
                     stats.prefetch_fills, http.stats.requests])
    print(format_table(
        ["lookahead", "demand fills (stalls)", "prefetch fills",
         "page requests"],
        rows))


if __name__ == "__main__":
    main()
