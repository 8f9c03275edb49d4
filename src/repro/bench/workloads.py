"""Workload generators for the experiments and examples.

Deterministic (seeded) generators for the paper's two motivating
domains:

* the homes/schools integration of the running example (Figure 3), at
  any scale;
* the ``allbooks`` bookseller integration of the introduction: two
  overlapping catalogs (think amazon vs barnesandnoble) with titles,
  authors, prices and availability that differ per store.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..xtree.tree import Tree, elem

__all__ = [
    "homes_and_schools",
    "book_catalog",
    "two_bookstores",
    "allbooks_plan",
    "HOMES_SCHOOLS_QUERY",
    "ALLBOOKS_VIEW_NAME",
    "CHEAP_DB_BOOKS_QUERY",
]

#: The conventional name the allbooks view is registered under.
ALLBOOKS_VIEW_NAME = "allbooks"

_STREETS = ["Shore Dr", "Hill Rd", "Bay Ct", "Mesa Blvd", "Cove Ln",
             "Canyon Way", "Palm Ave", "Summit St"]
_DIRECTORS = ["Smith", "Bar", "Hart", "Lee", "Nguyen", "Ortiz",
              "Klein", "Woods"]

_TITLE_WORDS = ["Database", "Systems", "Views", "Mediation", "XML",
                "Queries", "Navigation", "Lazy", "Virtual", "Web",
                "Semistructured", "Integration"]
_AUTHORS = ["Abiteboul", "Widom", "Ullman", "Papakonstantinou",
            "Ludaescher", "Velikhov", "Garcia-Molina", "Vianu"]


def homes_and_schools(n_homes: int, schools_per_zip: int = 2,
                      zips: Optional[int] = None,
                      seed: int = 7) -> Dict[str, Tree]:
    """Scaled homes/schools sources (Figure 3's data shape).

    ``zips`` controls join selectivity: the number of distinct zip
    codes homes are spread over (default: one per home).
    """
    rng = random.Random(seed)
    zips = zips or n_homes
    zip_codes = [str(91000 + i) for i in range(zips)]
    homes = []
    for i in range(n_homes):
        homes.append(elem(
            "home",
            elem("addr", "%d %s" % (i + 1, rng.choice(_STREETS))),
            elem("zip", zip_codes[i % zips]),
        ))
    schools = []
    for code in zip_codes:
        for j in range(schools_per_zip):
            schools.append(elem(
                "school",
                elem("dir", rng.choice(_DIRECTORS)),
                elem("zip", code),
            ))
    return {
        "homesSrc": Tree("homesSrc", [Tree("homes", homes)]),
        "schoolsSrc": Tree("schoolsSrc", [Tree("schools", schools)]),
    }


#: The Figure 3 query, verbatim.
HOMES_SCHOOLS_QUERY = """
CONSTRUCT <answer>
            <med_home> $H $S {$S} </med_home> {$H}
          </answer> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1
  AND schoolsSrc schools.school $S AND $S zip._ $V2
  AND $V1 = $V2
"""


def book_catalog(store: str, n_books: int, seed: int,
                 price_low: int = 8, price_high: int = 90) -> List[Tree]:
    """A bookseller catalog: ``book[title, author, price, isbn]``.

    Books with the same index across stores share title/author/isbn
    (the overlap the allbooks view integrates) but differ in price.
    """
    rng = random.Random(seed)
    # A process-stable store hash (builtin hash() is randomized).
    store_code = sum(ord(c) for c in store)
    price_rng = random.Random(seed * 31 + store_code % 1000)
    books = []
    for i in range(n_books):
        title = " ".join(rng.sample(_TITLE_WORDS, 3)) + " %d" % i
        books.append(elem(
            "book",
            elem("title", title),
            elem("author", rng.choice(_AUTHORS)),
            elem("price", str(price_rng.randint(price_low, price_high))),
            elem("isbn", "978-%07d" % i),
        ))
    return books


def two_bookstores(n_books: int, overlap: float = 0.6,
                   seed: int = 11) -> Tuple[List[Tree], List[Tree]]:
    """Catalogs for two stores with a shared prefix of titles.

    ``overlap`` is the fraction of each catalog present in both stores
    (same isbn/title, independent prices).
    """
    shared = int(n_books * overlap)
    amazon = book_catalog("amazon", n_books, seed)
    bn_shared = book_catalog("bn", shared, seed)
    rng = random.Random(seed + 1)
    bn_only = []
    for i in range(n_books - shared):
        title = " ".join(rng.sample(_TITLE_WORDS, 3)) + " bn%d" % i
        bn_only.append(elem(
            "book",
            elem("title", title),
            elem("author", rng.choice(_AUTHORS)),
            elem("price", str(rng.randint(8, 90))),
            elem("isbn", "979-%07d" % i),
        ))
    return amazon, bn_shared + bn_only


def allbooks_plan(amazon_url: str = "amazonSrc",
                  bn_url: str = "bnSrc"):
    """The introduction's ``allbooks`` view as an algebra plan: the
    union of both stores' books under one root.

    (XMAS's construction fragment has no union syntax, so the view is
    defined directly in the algebra -- views registered with the
    mediator may be plans as well as queries.)
    """
    from ..algebra.operators import (
        CreateElement,
        GetDescendants,
        GroupBy,
        Project,
        Source,
        TupleDestroy,
        Union,
    )
    left = Project(
        GetDescendants(Source(amazon_url, "R1"), "R1", "_*.book", "B"),
        ["B"])
    right = Project(
        GetDescendants(Source(bn_url, "R2"), "R2", "_*.book", "B"),
        ["B"])
    both = Union(left, right)
    grouped = GroupBy(both, [], [("B", "Bs")])
    answer = CreateElement(grouped, "allbooks", "Bs", "A")
    return TupleDestroy(answer, "A")

#: A query over the database-books domain used by examples: cheap
#: database books from the integrated view.
CHEAP_DB_BOOKS_QUERY = """
CONSTRUCT <hits> $B {$B} </hits> {}
WHERE allbooks book $B AND $B price._ $P AND $P < 30
"""
