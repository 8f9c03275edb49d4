"""Shared fixtures: the paper's running example and plan builders."""

import contextlib
import gc
import threading

from repro.algebra import (
    Comparison,
    Concatenate,
    CreateElement,
    GetDescendants,
    GroupBy,
    Join,
    Source,
    TupleDestroy,
    Var,
)
from repro.xtree import Tree, elem


@contextlib.contextmanager
def pool_thread_ledger():
    """Yields a function listing the pool worker threads (the buffer's
    look-ahead pool) started since entry and still alive.

    The cyclic GC is off inside: a pool is returned because somebody
    closed it, not because a collection happened to run.
    """
    def pool_threads():
        return {thread for thread in threading.enumerate()
                if thread.name.startswith("mix-fanout")}

    gc.collect()
    baseline = pool_threads()
    gc.disable()
    try:
        yield lambda: sorted(thread.name
                             for thread in pool_threads() - baseline)
    finally:
        gc.enable()


def homes_source() -> Tree:
    """The homesSrc document of Example 2 (root = exported doc node)."""
    return Tree("homesSrc", [elem(
        "homes",
        elem("home", elem("addr", "La Jolla"), elem("zip", "91220")),
        elem("home", elem("addr", "El Cajon"), elem("zip", "91223")),
    )])


def schools_source() -> Tree:
    """The schoolsSrc document of Example 2."""
    return Tree("schoolsSrc", [elem(
        "schools",
        elem("school", elem("dir", "Smith"), elem("zip", "91220")),
        elem("school", elem("dir", "Bar"), elem("zip", "91220")),
        elem("school", elem("dir", "Hart"), elem("zip", "91223")),
    )])


def fig4_plan() -> TupleDestroy:
    """The initial plan E_q of Figure 4, built node by node."""
    left = GetDescendants(
        GetDescendants(Source("homesSrc", "root1"),
                       "root1", "homes.home", "H"),
        "H", "zip._", "V1")
    right = GetDescendants(
        GetDescendants(Source("schoolsSrc", "root2"),
                       "root2", "schools.school", "S"),
        "S", "zip._", "V2")
    join = Join(left, right, Comparison(Var("V1"), "=", Var("V2")))
    grouped = GroupBy(join, ["H"], [("S", "LSs")])
    content = Concatenate(grouped, ["H", "LSs"], "HLSs")
    med_homes = CreateElement(content, "med_home", "HLSs", "MHs")
    all_homes = GroupBy(med_homes, [], [("MHs", "MHL")])
    answer = CreateElement(all_homes, "answer", "MHL", "A")
    return TupleDestroy(answer, "A")


def fig4_sources() -> dict:
    return {"homesSrc": homes_source(), "schoolsSrc": schools_source()}


def expected_fig4_answer() -> Tree:
    """The answer document the paper's semantics produces on the
    Example 2 data."""
    return elem(
        "answer",
        elem("med_home",
             elem("home", elem("addr", "La Jolla"), elem("zip", "91220")),
             elem("school", elem("dir", "Smith"), elem("zip", "91220")),
             elem("school", elem("dir", "Bar"), elem("zip", "91220"))),
        elem("med_home",
             elem("home", elem("addr", "El Cajon"), elem("zip", "91223")),
             elem("school", elem("dir", "Hart"), elem("zip", "91223"))),
    )


def homes_of_size(n_homes: int, schools_per_zip: int = 2) -> dict:
    """Scaled homes/schools sources for complexity experiments."""
    homes = [
        elem("home", elem("addr", "addr%d" % i),
             elem("zip", str(91000 + i)))
        for i in range(n_homes)
    ]
    schools = []
    for i in range(n_homes):
        for j in range(schools_per_zip):
            schools.append(
                elem("school", elem("dir", "dir%d_%d" % (i, j)),
                     elem("zip", str(91000 + i))))
    return {
        "homesSrc": Tree("homesSrc", [Tree("homes", homes)]),
        "schoolsSrc": Tree("schoolsSrc", [Tree("schools", schools)]),
    }
