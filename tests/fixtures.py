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
from repro.buffer import Fragments
from repro.xtree import Tree, elem


class ThreadLedger:
    """The ``mix-*`` threads (the daemon's ``mix-accept`` and
    ``mix-session`` threads) started while a :func:`thread_ledger` is
    open, in start order."""

    def __init__(self):
        self.threads = []

    @property
    def started(self):
        """The names of the threads started, in start order."""
        return [thread.name for thread in self.threads]

    def leaked(self, timeout_s=5.0):
        """The names of the threads still alive after a join of at
        most ``timeout_s`` each."""
        for thread in self.threads:
            thread.join(timeout_s)
        return sorted(thread.name for thread in self.threads
                      if thread.is_alive())


@contextlib.contextmanager
def thread_ledger():
    """Yields a :class:`ThreadLedger` that records every ``mix-*``
    thread as it starts, however briefly it lives.

    The cyclic GC is off inside: a thread ends because its owner
    ended it (a socket closed, a session torn down), not because a
    collection happened to run.
    """
    ledger = ThreadLedger()
    start = threading.Thread.start

    def recorded(thread):
        if thread.name.startswith("mix-"):
            ledger.threads.append(thread)
        start(thread)

    gc.collect()
    gc.disable()
    threading.Thread.start = recorded
    try:
        yield ledger
    finally:
        threading.Thread.start = start
        gc.enable()


class hole:
    """A hole in a fill reply written out (:func:`reply`)."""

    __slots__ = ("hole_id",)

    def __init__(self, hole_id):
        self.hole_id = hole_id

    def __eq__(self, other):
        return isinstance(other, hole) and other.hole_id == self.hole_id

    def __hash__(self):
        return hash(self.hole_id)

    def __repr__(self):
        return "hole(%r)" % (self.hole_id,)


def _write(out, entry):
    labels, sizes, holes = out
    slot = len(sizes)
    sizes.append(1)
    if isinstance(entry, hole):
        labels.append(None)
        holes.append(entry.hole_id)
    elif isinstance(entry, str):
        labels.append(entry)
    else:
        labels.append(entry[0])
        for child in entry[1:]:
            _write(out, child)
        sizes[slot] = len(sizes) - slot


def reply(*entries) -> Fragments:
    """A fill reply written out, entry by entry: a string is a leaf,
    ``(label, *children)`` an element, ``hole(id)`` a hole --
    ``reply(("a", "b", hole(7)), hole(8))`` is ``a[b, hole 7], hole
    8``."""
    out = ([], [], [])
    for entry in entries:
        _write(out, entry)
    return Fragments(*map(tuple, out))


def _read(fragments, holes, lo, hi) -> tuple:
    labels, sizes, _ = fragments
    read = []
    while lo < hi:
        label, size = labels[lo], sizes[lo]
        if label is None:
            read.append(hole(next(holes)))
        elif size == 1:
            read.append(label)
        else:
            read.append((label,)
                        + _read(fragments, holes, lo + 1, lo + size))
        lo += size
    return tuple(read)


def entries(fragments: Fragments) -> tuple:
    """A reply's entries written out, as :func:`reply` takes them."""
    return _read(fragments, iter(fragments.holes), 0,
                 len(fragments.labels))


def long_where_clause(count: int, source: str = "homesSrc",
                      path: str = "homes.home", root: str = "r") -> str:
    """A flat query over ``source`` whose WHERE clause holds ``count``
    conditions: the homes at ``path``, then one address per
    condition; its answer is a ``root`` element over those homes."""
    return ("CONSTRUCT <%s> $H {$H} </%s> {} WHERE %s %s $H"
            % (root, root, source, path)
            + "".join(" AND $H addr._ $A%d" % index
                      for index in range(count - 1)))


def stacked_views(mediator, count: int) -> str:
    """Register two text views of ``count`` conditions each over
    ``homesSrc``, the second over the first, and return a query of
    ``count`` conditions over the second: view inlining composes a
    plan of ``3 * count`` conditions."""
    mediator.register_view("v1", long_where_clause(count, root="homes"))
    mediator.register_view(
        "v2", long_where_clause(count, "v1", "home", "homes"))
    return long_where_clause(count, "v2", "home")


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
