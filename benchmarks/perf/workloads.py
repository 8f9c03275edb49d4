"""The benchmark's workloads: seeded inputs, one op each, the oracle
every answer is checked against, and the exact-repeat counts.

Every workload is a closed loop.  The in-process ones have one client;
``served_scan`` one connection; ``served_sessions`` two (= nproc)
connections.  The served ones start the shipped daemon as a child
process, so client and server do not share an interpreter lock.

An op is timed by :func:`measure`; everything a workload does outside
``op``/``traced_op`` (inputs, daemon start-up, oracle, warm-up) is
set-up and is charged to ``setup_s`` by the caller.
"""

from __future__ import annotations

import hashlib
import os
import random
import re
import resource
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import EngineConfig, MIXMediator, XMLElement, buffered
from repro.bench import (
    ALLBOOKS_VIEW_NAME,
    CHEAP_DB_BOOKS_QUERY,
    HOMES_SCHOOLS_QUERY,
    allbooks_plan,
    browse_first_k,
    homes_and_schools,
    two_bookstores,
)
from repro.buffer.lxp import TreeLXPServer, reply_holes
from repro.client.remote import NavigableLXPServer
from repro.navigation.materialized import MaterializedDocument
from repro.relational import Connection, Database
from repro.server.client import SocketChannel, connect, fetch_status
from repro.server.session import HoleTable
from repro.server.wire import (
    decode_fragments,
    encode_fragments,
    recv_frame_sized,
    send_frame,
)
from repro.wrappers import RelationalLXPWrapper, XMLFileWrapper
from repro.xtree import to_xml
from repro.xtree.tree import Tree, elem, tree_size

from spans import (
    ROOT,
    ConnectionProxy,
    DocProxy,
    LXPProxy,
    Recorder,
    fold_self_times,
)

__all__ = ["WORKLOADS", "Workload", "Samples", "measure",
           "normalize_plan"]

SRC = Path(__file__).resolve().parents[2] / "src"

#: the seed the pinned catalog (catalog.lock.json) is recorded at
DEFAULT_SEED = 1


class Samples:
    """What one measured pass observed."""

    def __init__(self) -> None:
        self.op_ms: List[float] = []
        self.first_ms: List[float] = []
        #: when each op ended, seconds into the pass
        self.ended_s: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        #: closed loops that produced the samples
        self.clients = 1
        #: named per-frame timings (served_sessions)
        self.frames_ms: Dict[str, List[float]] = {}
        #: what the driver asked of the daemon (served workloads):
        #: ok replies received and fill commands sent ...
        self.requests = 0
        self.fills = 0
        #: ... and the daemon's mix:status deltas over the same pass
        self.daemon_delta: Dict[str, int] = {}
        #: folded trace of the pass: layer -> [self seconds, spans]
        self.layers: Dict[str, List[float]] = {}
        #: raw spans of the first traced ops (for trace-<name>.json)
        self.sample_spans: List[list] = []

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(why)

    def _add_layers(self, folded: Dict[str, Any]) -> None:
        for layer, (self_s, count) in folded.items():
            entry = self.layers.setdefault(layer, [0.0, 0])
            entry[0] += self_s
            entry[1] += count

    def fold(self, spans: List[list]) -> None:
        """Add one traced op's spans, keeping the first ops' raw."""
        self._add_layers(fold_self_times(spans))
        if spans and spans[0][4] < 3:
            self.sample_spans.extend(spans)

    def merge(self, other: "Samples") -> None:
        """Add one connection's samples to the pass's."""
        self.op_ms += other.op_ms
        self.first_ms += other.first_ms
        self.ended_s += other.ended_s
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors
        self.requests += other.requests
        self.fills += other.fills
        self.sample_spans += other.sample_spans
        for kind, values in other.frames_ms.items():
            self.frames_ms.setdefault(kind, []).extend(values)
        self._add_layers(other.layers)


def first_result(root: XMLElement) -> float:
    """Read the tag of the answer root's first child -- the client's
    first result -- and return when that was done."""
    first = root.first_child()
    if first is not None:
        first.tag
    return perf_counter()


def normalize_plan(pretty: str) -> str:
    """``plan.pretty()`` with generated variable names renumbered by
    first appearance, so the text pins the plan's shape and not the
    translator's counter state."""
    names: Dict[str, str] = {}

    def rename(match: "re.Match[str]") -> str:
        return names.setdefault(match.group(0), "$g%d" % len(names))

    return re.sub(r"\$_\w+", rename, pretty)


class Workload:
    """One pinned scenario.  Subclasses fill in the hooks."""

    name = ""
    #: EngineConfig of the mediator under test
    config = EngineConfig()
    #: layer name of the document proxy at ``QueryResult.document``
    document_layer = "lazy"
    #: warm-up ops before the clock starts
    warmup_ops = 3

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.query: Any = None
        self.oracle: Any = None
        #: exact-repeat counts of one op, fixed by the warm-up
        self.expected_counts: Dict[str, float] = {}
        self.sizes: Dict[str, int] = {}

    # -- hooks ---------------------------------------------------------
    def make_inputs(self) -> None:
        """Generate the inputs from ``self.seed``."""
        raise NotImplementedError

    def register(self, mediator: MIXMediator,
                 recorder: Optional[Recorder]) -> Any:
        """Register this workload's sources on a fresh mediator; with a
        recorder, through timing proxies.  Returns a handle
        :meth:`counts` reads."""
        raise NotImplementedError

    def consume(self, root: XMLElement) -> Any:
        """The client's navigation; returns the answer to verify."""
        return root.to_tree()

    def expected_answer(self) -> Any:
        return self.oracle

    def answer_tree(self) -> Tree:
        """The answer as one tree (what the wire probes encode)."""
        return self.expected_answer()

    def counts(self, mediator: MIXMediator, result: Any,
               handle: Any) -> Dict[str, float]:
        return {"navigation.source_navs":
                mediator.total_source_navigations()}

    # -- lifecycle -----------------------------------------------------
    def setup(self) -> None:
        self.make_inputs()
        self.oracle = self.eager_oracle(self.fresh_mediator())
        self.before_ops()
        self.warm_up()

    def warm_up(self) -> None:
        """Run the warm-up ops; they fix the exact-repeat counts."""
        for _ in range(self.warmup_ops):
            _submitted, _first_at, answer, counts = self.op()
            self.expected_counts = counts()
            if answer != self.expected_answer():
                raise AssertionError(
                    "%s: warm-up answer differs from the eager oracle"
                    % self.name)

    def eager_oracle(self, mediator: MIXMediator) -> Any:
        return mediator.query_eager(self.query)

    def before_ops(self) -> None:
        """State the ops need that is not an input (a warm cache)."""

    def teardown(self) -> None:
        """Release what set-up started."""

    # -- one op --------------------------------------------------------
    def op(self) -> Tuple[float, float, Any, Callable[[], Dict]]:
        """One untraced op.  Returns (query submitted at, first result
        read at, answer, counts); the caller stamps start and end, and
        calls ``counts()`` once its clock has stopped."""
        mediator = MIXMediator(self.config)
        handle = self.register(mediator, None)
        submitted = perf_counter()
        result = mediator.prepare(self.query)
        root = result.root
        first_at = first_result(root)
        answer = self.consume(root)
        return submitted, first_at, answer, \
            lambda: self.counts(mediator, result, handle)

    def traced_op(self, recorder: Recorder
                  ) -> Tuple[float, float, Any, Callable[[], Dict]]:
        """The same op with timing proxies at the public seams."""
        span = recorder.begin("mediator.register")
        mediator = MIXMediator(self.config)
        handle = self.register(mediator, recorder)
        recorder.end(span)
        submitted = perf_counter()
        span = recorder.begin("mediator.prepare")
        result = mediator.prepare(self.query)
        recorder.end(span)
        span = recorder.begin("client")
        document = DocProxy(result.document, recorder,
                            self.document_layer)
        root = XMLElement(document, document.root())
        first_at = first_result(root)
        answer = self.consume(root)
        recorder.end(span)
        return submitted, first_at, answer, \
            lambda: self.counts(mediator, result, handle)

    # -- pinned catalog ------------------------------------------------
    def catalog_entry(self) -> Dict[str, Any]:
        """What catalog.lock.json pins for this workload (call after
        :meth:`setup`)."""
        nodes, digest = self.answer_summary()
        plan = self.fresh_mediator().prepare(self.query).executed_plan
        return {
            "seed": self.seed,
            "sizes": self.sizes,
            "query": " ".join(self.query.split()),
            "plan": normalize_plan(plan.pretty()),
            "answer_nodes": nodes,
            "answer_sha256": digest,
            "counts": self.expected_counts,
        }

    def answer_summary(self) -> Tuple[int, str]:
        """(node count, SHA-256 of the XML) of the answer every op
        must give; a list of trees is concatenated."""
        answer = self.expected_answer()
        trees = answer if isinstance(answer, list) else [answer]
        text = "".join(to_xml(tree) for tree in trees)
        return sum(tree_size(tree) for tree in trees), \
            hashlib.sha256(text.encode("utf-8")).hexdigest()

    def fresh_mediator(self) -> MIXMediator:
        """An untraced mediator over this workload's sources (for the
        catalog and the direct-call probes)."""
        mediator = MIXMediator(self.config)
        self.register(mediator, None)
        return mediator


def _buffer_counts(stats: Any) -> Dict[str, float]:
    """``buffer.*`` counts from BufferStats-shaped objects or the
    plain dicts ``stats_report()`` renders them as."""
    total = {"navigations": 0, "hits": 0, "fills": 0}
    for one in stats:
        for key in total:
            total[key] += (one[key] if isinstance(one, dict)
                           else getattr(one, key))
    return {"buffer.navigations": total["navigations"],
            "buffer.fills": total["fills"],
            "buffer.hits": total["hits"]}


def _wrapper_counts(servers: List[Any]) -> Dict[str, float]:
    snaps = [server.stats.snapshot() for server in servers]
    return {"wrappers.fills": sum(s["fills"] for s in snaps),
            "wrappers.nodes_shipped":
                sum(s["elements_shipped"] for s in snaps)}


class Wrapped(Workload):
    """Shared by the workloads whose sources are LXP wrappers."""

    def make_servers(self, recorder: Optional[Recorder]
                     ) -> Dict[str, Any]:
        raise NotImplementedError

    def register(self, mediator, recorder):
        if recorder is None:
            servers = self.make_servers(None)
            for name, server in servers.items():
                mediator.register_wrapper(name, server)
            return list(servers.values()), None
        # What register_wrapper builds when resilience and the
        # fragment cache are off, from the same public pieces, with a
        # seam above and below the buffer.
        servers = recorder.call("wrappers", self.make_servers, recorder)
        buffers = []
        for name, server in servers.items():
            buffer = buffered(LXPProxy(server, recorder, "wrappers"))
            buffers.append(buffer)
            mediator.register_source(
                name, DocProxy(buffer, recorder, "buffer"))
        return list(servers.values()), buffers

    def counts(self, mediator, result, handle):
        servers, buffers = handle
        counts = super().counts(mediator, result, handle)
        counts.update(_wrapper_counts(servers))
        if buffers is None:
            counts.update(_buffer_counts(
                result.stats().get("buffers", {}).values()))
        else:
            counts.update(_buffer_counts(b.stats for b in buffers))
        return counts


class BrowsePrefix(Wrapped):
    """The paper's headline interaction: a broad query over an
    integrated view, of which the client looks at the first results."""

    name = "browse_prefix"
    BOOKS = 2000
    CHUNK = 10
    FIRST_K = 10
    #: every STRIDE-th book is cheap
    STRIDE = 4

    def make_inputs(self) -> None:
        self.sizes = {"books_per_store": self.BOOKS,
                      "chunk_size": self.CHUNK, "first_k": self.FIRST_K}
        self.query = CHEAP_DB_BOOKS_QUERY
        amazon, bn = two_bookstores(self.BOOKS, seed=self.seed)
        rng = random.Random(self.seed)
        self.catalogs = {
            "amazonSrc": Tree("amazonSrc", [
                Tree("catalog", self._reprice(amazon, rng))]),
            "bnSrc": Tree("bnSrc", [
                Tree("catalog", self._reprice(bn, rng))]),
        }

    def _reprice(self, books: List[Tree],
                 rng: random.Random) -> List[Tree]:
        """Seeded prices, with every STRIDE-th book cheap (< 30).  How
        far a client must scan for its first k cheap books then does
        not depend on the seed, so runs at different seeds do the same
        amount of work."""
        repriced = []
        for index, book in enumerate(books):
            price = (rng.randint(8, 29)
                     if index % self.STRIDE == self.STRIDE - 1
                     else rng.randint(30, 90))
            repriced.append(Tree("book", [
                elem("price", str(price))
                if child.label == "price" else child
                for child in book.children]))
        return repriced

    def make_servers(self, recorder):
        return {name: TreeLXPServer(tree, chunk_size=self.CHUNK)
                for name, tree in self.catalogs.items()}

    def register(self, mediator, recorder):
        handle = super().register(mediator, recorder)
        mediator.register_view(ALLBOOKS_VIEW_NAME, allbooks_plan())
        return handle

    def consume(self, root):
        seen: List[Tree] = []
        browse_first_k(root, self.FIRST_K,
                       per_result=lambda e: seen.append(e.to_tree()))
        return seen

    def expected_answer(self):
        return list(self.oracle.children[:self.FIRST_K])

    def answer_tree(self):
        return Tree(self.oracle.label, self.expected_answer())


class JoinScan(Workload):
    """Figure 3's join + groupBy over materialized sources: the lazy
    operators do nearly all the work; nothing below them exists."""

    name = "join_scan"
    HOMES = 40

    def make_inputs(self) -> None:
        self.sizes = {"homes": self.HOMES}
        self.query = HOMES_SCHOOLS_QUERY
        self.sources = homes_and_schools(self.HOMES, seed=self.seed)

    def register(self, mediator, recorder):
        for name, tree in self.sources.items():
            document: Any = MaterializedDocument(tree)
            if recorder is not None:
                document = DocProxy(document, recorder, "navigation")
            mediator.register_source(name, document)
        return None


class WrappedScan(Wrapped):
    """A full scan through buffer, relational wrapper and cursors; the
    operator tree is one getDescendants chain."""

    name = "wrapped_scan"
    ROWS = 700
    CHUNK = 20

    def make_inputs(self) -> None:
        self.sizes = {"rows": self.ROWS, "chunk_size": self.CHUNK}
        self.query = ("CONSTRUCT <names> $N {$N} </names> {} "
                      "WHERE bigdb items._ $R AND $R name._ $N")
        rng = random.Random(self.seed)
        self.database = Database("bigdb")
        table = self.database.create_table(
            "items", [("name", "str"), ("qty", "int")])
        table.insert_many([("item%04d-%04d" % (i, rng.randrange(10000)),
                            rng.randrange(97))
                           for i in range(self.ROWS)])

    def make_servers(self, recorder):
        connection: Any = Connection(self.database)
        if recorder is not None:
            connection = ConnectionProxy(connection, recorder,
                                         "relational")
        self.connection = connection
        return {"bigdb": RelationalLXPWrapper(connection,
                                              chunk_size=self.CHUNK)}

    def counts(self, mediator, result, handle):
        counts = super().counts(mediator, result, handle)
        counts["relational.statements"] = \
            self.connection.statements_executed
        return counts


class CacheCold(Wrapped):
    """Sessions that *write* the cross-session fragment store: each op
    starts from an empty store and materializes the view."""

    name = "cache_cold"
    config = EngineConfig(fragment_cache=True)
    document_layer = "fragcache.stack"
    HOMES = 200
    CHUNK = 2
    #: whether every op starts from an empty shared store
    cold = True

    def make_inputs(self) -> None:
        self.sizes = {"homes": self.HOMES, "chunk_size": self.CHUNK}
        self.query = ("CONSTRUCT <hits> $H {$H} </hits> {} "
                      "WHERE homesSrc homes.home $H")
        self.tree = homes_and_schools(
            self.HOMES, seed=self.seed)["homesSrc"].children[0]

    def make_servers(self, recorder):
        return {"homesSrc": XMLFileWrapper("homesSrc", self.tree,
                                           chunk_size=self.CHUNK)}

    def register(self, mediator, recorder):
        from repro.runtime.fragcache import shared_store
        before = shared_store().stats.snapshot()
        servers = self.make_servers(recorder) if recorder is None \
            else recorder.call("wrappers", self.make_servers, recorder)
        for name, server in servers.items():
            # The cache seam sits inside register_wrapper, so the
            # traced run keeps it and reports cache + buffer +
            # operators as one stack above the wrapper proxy.
            mediator.register_wrapper(
                name, server if recorder is None
                else LXPProxy(server, recorder, "wrappers"))
        return list(servers.values()), before

    def counts(self, mediator, result, handle):
        from repro.runtime.fragcache import shared_store
        servers, before = handle
        after = shared_store().stats.snapshot()
        counts = Workload.counts(self, mediator, result, handle)
        counts.update(_wrapper_counts(servers))
        counts.update(_buffer_counts(
            result.stats().get("buffers", {}).values()))
        for key in ("hits", "misses", "view_adoptions"):
            counts["fragcache." + key] = after[key] - before[key]
        return counts

    def _reset_if_cold(self) -> None:
        if self.cold:
            from repro.runtime.fragcache import reset_shared_store
            reset_shared_store()

    def op(self):
        self._reset_if_cold()
        return super().op()

    def traced_op(self, recorder):
        self._reset_if_cold()
        return super().traced_op(recorder)


class CacheWarm(CacheCold):
    """Sessions that *read* the store a first session filled: the view
    is adopted whole and the source is never asked."""

    name = "cache_warm"
    cold = False

    def before_ops(self) -> None:
        from repro.runtime.fragcache import reset_shared_store
        reset_shared_store()
        self.op()


# ----------------------------------------------------------------------
# the served workloads
# ----------------------------------------------------------------------

class Daemon:
    """The shipped daemon as a child process."""

    START_TIMEOUT_S = 30.0
    STOP_TIMEOUT_S = 15.0

    def __init__(self, homes: int) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]]
                          if env.get("PYTHONPATH") else []))
        started = perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--workload", "homes:%d" % homes, "--chunk-size", "4",
             "--max-sessions", "256", "--port", "0"],
            stdout=subprocess.PIPE, env=env, text=True)
        try:
            ready, _, _ = select.select([self.process.stdout], [], [],
                                        self.START_TIMEOUT_S)
            words = (self.process.stdout.readline().split()
                     if ready else [])
            if len(words) != 3 or words[0] != "serving":
                raise RuntimeError("daemon did not announce itself: %r"
                                   % (words,))
        except BaseException:
            self.kill()
            raise
        self.startup_s = perf_counter() - started
        self.host, self.port = words[1], int(words[2])
        self.peak_rss_mb = 0.0

    def status(self) -> Dict[str, int]:
        """The daemon's lifetime counters, minus the two a status
        probe itself moves."""
        counters = fetch_status(self.host, self.port)["server"]
        return {key: value for key, value in counters.items()
                if key not in ("accepted", "sessions_closed")}

    def settled_status(self) -> Dict[str, int]:
        """The lifetime counters once they stop moving: the daemon
        bumps them after a reply is on the wire, so the probe that
        follows the last reply can be early."""
        status = self.status()
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            time.sleep(0.02)  # lint: allow=X101 -- bounded settle loop
            again = self.status()
            if again == status:
                break
            status = again
        return status

    def cpu_s(self) -> float:
        """User + system CPU seconds the daemon has used so far."""
        with open("/proc/%d/stat" % self.process.pid) as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])
        return ticks / os.sysconf("SC_CLK_TCK")

    def _read_peak_rss(self) -> None:
        with open("/proc/%d/status" % self.process.pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    self.peak_rss_mb = int(line.split()[1]) / 1024.0

    def stop(self) -> int:
        """SIGTERM, wait for the drain, return the exit code."""
        if self.process.poll() is None:
            self._read_peak_rss()
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=self.STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.kill()
        self.process.stdout.close()
        return self.process.returncode

    def kill(self) -> None:
        """The error path: make sure no child outlives the run."""
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        if not self.process.stdout.closed:
            self.process.stdout.close()


class Served(Workload):
    """Shared by the workloads that drive the daemon child."""

    HOMES = 0
    TIMEOUT_MS = 10000.0

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.daemon: Optional[Daemon] = None
        self.daemon_exit: Optional[int] = None

    def make_inputs(self) -> None:
        # `repro serve --workload homes:N` generates its sources with
        # the generator's default seed; the oracle is built from the
        # same call, so --seed does not reach the daemon's data.
        self.sizes = {"homes": self.HOMES, "chunk_size": 4}
        self.sources = homes_and_schools(self.HOMES)

    def register(self, mediator, recorder):
        for name, tree in self.sources.items():
            mediator.register_source(name, MaterializedDocument(tree))
        return None

    def setup(self) -> None:
        self.daemon = Daemon(self.HOMES)
        try:
            super().setup()
        except BaseException:
            self.daemon.kill()
            raise

    def teardown(self) -> None:
        if self.daemon is not None:
            self.daemon_exit = self.daemon.stop()


class ServedScan(Served):
    """The steady-state served path: one session amortised over a full
    scan of the answer, a round trip per chunk."""

    name = "served_scan"
    HOMES = 200
    #: the client navigates its own buffer over the channel
    document_layer = "buffer"

    def make_inputs(self) -> None:
        super().make_inputs()
        self.query = ("CONSTRUCT <zips> $Z {$Z} </zips> {} "
                      "WHERE homesSrc homes.home.zip $Z")

    def op(self):
        daemon = self.daemon
        submitted = perf_counter()
        session = connect(daemon.host, daemon.port, self.query,
                          timeout_ms=self.TIMEOUT_MS)
        try:
            first_at = first_result(session.root)
            answer = session.root.to_tree()
        finally:
            session.close()
        return submitted, first_at, answer, lambda: self._counts(
            session.channel,
            session.context.stats_report()["buffers"].values())

    def traced_op(self, recorder):
        # connect() assembled from its own public pieces, so a seam
        # fits between the buffer and the channel.
        daemon = self.daemon
        submitted = perf_counter()
        span = recorder.begin("server_client.connect")
        sock = socket.create_connection(
            (daemon.host, daemon.port), timeout=self.TIMEOUT_MS / 1e3)
        try:
            sock.settimeout(self.TIMEOUT_MS / 1e3)
            send_frame(sock, {"op": "open", "query": self.query})
            reply, _ = recv_frame_sized(sock)
            if reply is None or not reply.get("ok"):
                raise RuntimeError("open refused: %r" % (reply,))
            channel = SocketChannel(sock, reply["root"],
                                    timeout_ms=self.TIMEOUT_MS)
        except BaseException:
            sock.close()
            raise
        recorder.end(span)
        try:
            span = recorder.begin("client")
            buffer = buffered(LXPProxy(channel, recorder,
                                       "server_client.round_trip"))
            document = DocProxy(buffer, recorder, "buffer")
            root = XMLElement(document, document.root())
            first_at = first_result(root)
            answer = root.to_tree()
            recorder.end(span)
        finally:
            recorder.call("server_client.close", channel.close)
        return submitted, first_at, answer, \
            lambda: self._counts(channel, [buffer.stats])

    def _counts(self, channel, buffers):
        snap = channel.stats.snapshot()
        counts = {"server_client.messages": snap["messages"],
                  "server_client.bytes": snap["bytes_transferred"]}
        counts.update(_buffer_counts(buffers))
        return counts


class ServedSessions(Served):
    """Many short sessions: accept, handler spawn, admission,
    per-session prepare and teardown dominate; fills are few."""

    name = "served_sessions"
    HOMES = 40
    CONNECTIONS = 2
    ROUNDS = 3
    PATTERNS = ("drill", "scan", "burst")
    warmup_ops = 200
    #: raw frames: no client library, no document under it
    document_layer = ""

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        if smoke:
            self.warmup_ops = 12
        #: which pattern session 0 runs: the part of this workload the
        #: seed decides
        self.rotation = seed % len(self.PATTERNS)

    def make_inputs(self) -> None:
        super().make_inputs()
        self.sizes.update(connections=self.CONNECTIONS,
                          rounds=self.ROUNDS)
        self.query = ("CONSTRUCT <result> <home> $A {$A} </home> {$H} "
                      "</result> {} "
                      "WHERE homesSrc homes.home $H AND $H addr._ $A")

    def pattern_of(self, index: int) -> str:
        return self.PATTERNS[(index + self.rotation)
                             % len(self.PATTERNS)]

    # -- the dialogue, over any transport ------------------------------
    def dialogue(self, pattern: str, root: int,
                 call: Callable[[Dict[str, Any]], Dict[str, Any]]
                 ) -> List[Any]:
        """ROUNDS navigation requests of ``pattern``; returns the
        reply payloads.  ``drill`` follows the newest hole, ``scan``
        the oldest, ``burst`` asks for the whole frontier at once."""
        frontier = [root]
        payloads: List[Any] = []
        for _ in range(self.ROUNDS):
            if not frontier:
                break
            if pattern == "burst" and len(frontier) > 1:
                payload = call({"op": "fill_batch", "holes": frontier,
                                "speculate": 0})["replies"]
                frontier = [hole for _id, fragments in payload
                            for hole in reply_holes(decode_fragments(fragments))]
            else:
                hole = frontier.pop() if pattern == "drill" \
                    else frontier.pop(0)
                payload = call({"op": "fill",
                                "hole": hole})["fragments"]
                frontier.extend(reply_holes(decode_fragments(payload)))
            payloads.append(payload)
        return payloads

    def eager_oracle(self, mediator):
        """Per pattern, the reply payloads an in-process export of the
        same query gives -- what every served session must equal --
        after checking that export, and the daemon's full answer,
        against the eager answer."""
        eager = self.eager = mediator.query_eager(self.query)
        if mediator.prepare(self.query).materialize() != eager:
            raise AssertionError("in-process answer differs from the "
                                 "eager oracle")
        with connect(self.daemon.host, self.daemon.port, self.query,
                     timeout_ms=self.TIMEOUT_MS) as session:
            if session.root.to_tree() != eager:
                raise AssertionError("served answer differs from the "
                                     "eager oracle")
        expected = {}
        for pattern in self.PATTERNS:
            exporter = NavigableLXPServer(
                mediator.prepare(self.query).document, chunk_size=4)
            table = HoleTable()

            def call(request, exporter=exporter, table=table):
                if request["op"] == "fill":
                    fragments = exporter.fill(
                        table.resolve(request["hole"]))
                    return {"fragments": encode_fragments(
                        fragments, table.intern)}
                replies = exporter.fill_batch(
                    [table.resolve(h) for h in request["holes"]], 0)
                return {"replies": [
                    [table.intern(hole),
                     encode_fragments(fragments, table.intern)]
                    for hole, fragments in replies]}

            root = table.intern(exporter.get_root().hole_id)
            expected[pattern] = self.dialogue(pattern, root, call)
        return expected

    def warm_up(self) -> None:
        warm = measure_sessions(self, None, self.warmup_ops)
        if warm.failed:
            raise AssertionError("warm-up sessions failed: %s"
                                 % warm.errors)

    def answer_tree(self):
        return self.eager

    def answer_summary(self):
        payloads = repr(sorted(self.oracle.items()))
        return payloads.count("'e'"), hashlib.sha256(
            payloads.encode("utf-8")).hexdigest()

    # -- one session ---------------------------------------------------
    def session(self, index: int, samples: Samples,
                recorder: Optional[Recorder],
                pass_started: float) -> None:
        """One whole session over TCP, every frame timed; a frame's
        span is the driver waiting on the daemon."""
        pattern = self.pattern_of(index)
        first_at = 0.0

        def exchange(kind: str, request: Dict[str, Any]
                     ) -> Dict[str, Any]:
            nonlocal first_at
            span = recorder.begin("daemon." + kind) \
                if recorder is not None else -1
            started = perf_counter()
            send_frame(sock, request)
            reply, _ = recv_frame_sized(sock)
            ended = perf_counter()
            if recorder is not None:
                recorder.end(span)
            samples.frames_ms.setdefault(kind, []).append(
                (ended - started) * 1e3)
            if reply is None or not reply.get("ok"):
                raise RuntimeError("%s refused: %r" % (kind, reply))
            samples.requests += 1
            if kind == pattern:
                samples.fills += len(request["holes"]) \
                    if "holes" in request else 1
                first_at = first_at or ended
            return reply

        samples.attempted += 1
        if recorder is not None:
            recorder.begin(ROOT)
        started = perf_counter()
        try:
            sock = socket.create_connection(
                (self.daemon.host, self.daemon.port),
                timeout=self.TIMEOUT_MS / 1e3)
            try:
                sock.settimeout(self.TIMEOUT_MS / 1e3)
                root = exchange("open", {"op": "open",
                                         "query": self.query})["root"]
                payloads = self.dialogue(
                    pattern, root,
                    lambda request: exchange(pattern, request))
                exchange("close", {"op": "close"})
            finally:
                sock.close()
            ended = perf_counter()
        except (OSError, RuntimeError, KeyError) as err:
            samples.fail("session %d (%s): %s" % (index, pattern, err))
            return
        finally:
            if recorder is not None:
                samples.fold(recorder.take())
        samples.op_ms.append((ended - started) * 1e3)
        samples.first_ms.append((first_at - started) * 1e3)
        samples.ended_s.append(ended - pass_started)
        if payloads != self.oracle[pattern]:
            samples.fail("session %d (%s): replies differ from the "
                         "in-process export" % (index, pattern))


def measure_sessions(workload: ServedSessions,
                     seconds: Optional[float],
                     sessions: Optional[int] = None,
                     traced: bool = False) -> Samples:
    """Drive CONNECTIONS closed loops for ``seconds`` (or until
    ``sessions`` sessions have run)."""
    cursor_lock = threading.Lock()
    cursor = [0]
    started = perf_counter()
    deadline = started + seconds if seconds is not None else None
    per_thread = [Samples() for _ in range(workload.CONNECTIONS)]

    def loop(mine: Samples) -> None:
        recorder = Recorder() if traced else None
        while deadline is None or perf_counter() < deadline:
            with cursor_lock:
                index = cursor[0]
                if sessions is not None and index >= sessions:
                    return
                cursor[0] = index + 1
            if recorder is not None:
                recorder.op_id = index
            workload.session(index, mine, recorder, started)

    threads = [threading.Thread(target=loop, args=(mine,),
                                name="conn-%d" % i)
               for i, mine in enumerate(per_thread)]
    before = workload.daemon.status()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    samples = Samples()
    samples.clients = workload.CONNECTIONS
    for mine in per_thread:
        samples.merge(mine)
    _reconcile(workload.daemon, before, samples)
    return samples


def _reconcile(daemon: Daemon, before: Dict[str, int],
               samples: Samples) -> None:
    """The daemon's ``mix:status`` deltas over a pass must equal what
    the driver did, with no session killed or refused."""
    after = daemon.settled_status()
    delta = {key: after[key] - before[key] for key in after}
    samples.daemon_delta = delta
    for key, mine in (("sessions_opened", samples.attempted),
                      ("requests", samples.requests),
                      ("fills", samples.fills)):
        if delta[key] != mine:
            samples.fail("mix:status %s: daemon %d != driver %d"
                         % (key, delta[key], mine))
    kills = sum(value for key, value in delta.items()
                if key.endswith("_kills"))
    if kills or delta["rejected_busy"]:
        samples.fail("daemon killed %d and refused %d sessions"
                     % (kills, delta["rejected_busy"]))


def measure(workload: Workload, seconds: float,
            recorder: Optional[Recorder] = None) -> Samples:
    """The closed loop: run ops for ``seconds``, time each, and check
    each answer and its counts after its clock has stopped."""
    if isinstance(workload, ServedSessions):
        return measure_sessions(workload, seconds,
                                traced=recorder is not None)
    samples = Samples()
    expected = workload.expected_answer()
    served = isinstance(workload, Served)
    before = workload.daemon.status() if served else {}
    pass_started = perf_counter()
    deadline = pass_started + seconds
    while perf_counter() < deadline:
        samples.attempted += 1
        if recorder is not None:
            recorder.begin(ROOT)
        try:
            started = perf_counter()
            submitted, first_at, answer, counts = (
                workload.op() if recorder is None
                else workload.traced_op(recorder))
            ended = perf_counter()
        except Exception as err:  # an op that raised is a failed op
            samples.fail("%s: %s" % (type(err).__name__, err))
            continue
        finally:
            if recorder is not None:
                samples.fold(recorder.take())
        samples.op_ms.append((ended - started) * 1e3)
        samples.first_ms.append((first_at - submitted) * 1e3)
        samples.ended_s.append(ended - pass_started)
        counted = counts()
        if served:
            # open + one request per round trip + close
            samples.requests += counted["server_client.messages"] + 2
            samples.fills += counted["server_client.messages"]
        if answer != expected:
            samples.fail("answer differs from the eager oracle")
        elif counted != workload.expected_counts:
            samples.fail("counts %r differ from the warm-up's %r"
                         % (counted, workload.expected_counts))
    if served:
        _reconcile(workload.daemon, before, samples)
    return samples


def peak_rss_mb() -> float:
    """Peak resident set of this process, MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_s() -> float:
    """User + system CPU seconds this process has used so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


WORKLOADS = {cls.name: cls for cls in (
    BrowsePrefix, JoinScan, WrappedScan, ServedScan, ServedSessions,
    CacheCold, CacheWarm)}
