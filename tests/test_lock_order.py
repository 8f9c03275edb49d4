"""The concurrency analyzer and the runtime deadlock sanitizer.

Three layers under test, and the contract that binds them:

1. **Static** -- ``tools.lint.lockgraph`` finds lock-order cycles
   (L010), blocking calls under locks (L011), foreign callbacks under
   locks (L012) and interprocedural lock-consistency violations
   (L002) on small toy modules, including the ``_locked``-suffix
   blind spot the per-file L001 rule cannot see.
2. **Dynamic** -- ``repro.testing.lockcheck`` raises on the same
   hazards at runtime when armed, and stays entirely off the default
   path (proven in subprocesses).
3. **Agreement** -- every lock-order edge the armed sanitizer observes
   while driving a real mediator/server scenario is contained in the
   static graph computed from ``src/repro`` (dynamic is a subset of
   static), and the sanitizer's blocking-hold allowlist names only
   locks the static analyzer knows.
"""

from __future__ import annotations

import subprocess
import sys
import threading
import time
from pathlib import Path
from textwrap import dedent

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_ROOT = REPO_ROOT / "src" / "repro"
sys.path.insert(0, str(REPO_ROOT))

from tools.lint import lint_file  # noqa: E402
from tools.lint.lockgraph import analyze  # noqa: E402

from repro.runtime import locks as locks_mod  # noqa: E402
from repro.runtime.locks import make_lock, make_rlock  # noqa: E402
from repro.testing import lockcheck  # noqa: E402


def _toy(tmp_path: Path, name: str, source: str) -> Path:
    path = tmp_path / name
    path.write_text(dedent(source))
    return path


def _codes(graph) -> list:
    return [f.code for f in graph.findings]


# ----------------------------------------------------------------------
# static: toy modules through the whole-program analyzer
# ----------------------------------------------------------------------

class TestStaticLockOrder:
    def test_abba_cycle_is_an_l010(self, tmp_path):
        path = _toy(tmp_path, "abba.py", """\
            from repro.runtime.locks import make_lock

            class Pair:
                def __init__(self):
                    self.a = make_lock("toy.a")
                    self.b = make_lock("toy.b")

                def ab(self):
                    with self.a:
                        with self.b:
                            pass

                def ba(self):
                    with self.b:
                        with self.a:
                            pass
            """)
        graph = analyze([path])
        assert ("toy.a", "toy.b") in graph.edge_pairs()
        assert ("toy.b", "toy.a") in graph.edge_pairs()
        assert "L010" in _codes(graph)
        assert any(set(c) == {"toy.a", "toy.b"} for c in graph.cycles())

    def test_stacked_locks_close_no_cycle(self, tmp_path):
        """A client buffer over its session channel over a source
        buffer: ``buffer.component`` and ``client.channel`` nest both
        ways by name, ordered by the stack, not by name."""
        path = _toy(tmp_path, "stack.py", """\
            from repro.runtime.locks import make_lock

            class Buffer:
                def __init__(self, server):
                    self._lock = make_lock("buffer.component")
                    self.server = server

                def down(self):
                    with self._lock:
                        self.server.fill()

            class Channel:
                def __init__(self, buffer):
                    self._lock = make_lock("client.channel")
                    self.buffer = buffer

                def fill(self):
                    with self._lock:
                        self.buffer.down()
            """)
        graph = analyze([path])
        assert {("buffer.component", "client.channel"),
                ("client.channel", "buffer.component")} \
            <= graph.edge_pairs()
        assert graph.cycles() == []

    def test_op_table_call_reaches_every_op(self, tmp_path):
        """A call through a class op table (``OPS.get(op)(...)``) may
        run any method in the table: each one's locks are reached."""
        path = _toy(tmp_path, "ops.py", """\
            from repro.runtime.locks import make_lock

            class Table:
                def __init__(self):
                    self._lock = make_lock("toy.table")
                    self._inner = make_lock("toy.inner")

                def ping(self, frame):
                    with self._inner:
                        return frame

                def dispatch(self, frame):
                    op = self.OPS.get(frame)
                    with self._lock:
                        return op(self, frame)

                OPS = {"ping": ping}
            """)
        graph = analyze([path])
        assert ("toy.table", "toy.inner") in graph.edge_pairs()

    def test_self_attribute_is_not_a_foreign_property(self, tmp_path):
        """``self.counters`` in a class where it is a plain attribute
        does not resolve to the one ``counters`` property elsewhere."""
        path = _toy(tmp_path, "props.py", """\
            from repro.runtime.locks import make_lock

            class Meter:
                def __init__(self):
                    self._lock = make_lock("toy.meter")

                @property
                def counters(self):
                    with self._lock:
                        return 0

            class Proxy:
                def __init__(self):
                    self._lock = make_lock("toy.proxy")
                    self.counters = 0

                def down(self):
                    with self._lock:
                        return self.counters
            """)
        graph = analyze([path])
        assert ("toy.proxy", "toy.meter") not in graph.edge_pairs()

    def test_consistent_order_is_clean(self, tmp_path):
        path = _toy(tmp_path, "ordered.py", """\
            from repro.runtime.locks import make_lock

            class Pair:
                def __init__(self):
                    self.a = make_lock("toy.a")
                    self.b = make_lock("toy.b")

                def one(self):
                    with self.a:
                        with self.b:
                            pass

                def two(self):
                    with self.a:
                        with self.b:
                            pass
            """)
        graph = analyze([path])
        assert graph.edge_pairs() == {("toy.a", "toy.b")}
        assert graph.cycles() == []
        assert "L010" not in _codes(graph)

    def test_fill_fans_out_to_lxp_servers_only(self, tmp_path):
        """``self.server.fill`` reaches every class that speaks LXP
        (answers ``get_root`` too), not every method named ``fill``."""
        path = _toy(tmp_path, "seam.py", """\
            from repro.runtime.locks import make_lock

            class Wrapper:
                def __init__(self):
                    self.guard = make_lock("toy.wrapper")

                def get_root(self):
                    return None

                def fill(self, hole_id):
                    with self.guard:
                        return []

            class OpTable:
                def __init__(self):
                    self.guard = make_lock("toy.optable")

                def fill(self, frame):
                    with self.guard:
                        return {}

            class Buffer:
                def __init__(self, server):
                    self.server = server
                    self.guard = make_lock("toy.buffer")

                def demand(self, hole_id):
                    with self.guard:
                        return self.server.fill(hole_id)
            """)
        graph = analyze([path])
        assert graph.edge_pairs() == {("toy.buffer", "toy.wrapper")}

    def test_blocking_call_under_lock_is_an_l011(self, tmp_path):
        path = _toy(tmp_path, "sleepy.py", """\
            import time

            from repro.runtime.locks import make_lock

            class Sleepy:
                def __init__(self):
                    self.guard = make_lock("toy.sleepy")

                def nap(self):
                    with self.guard:
                        time.sleep(0.01)
            """)
        graph = analyze([path])
        l011 = [f for f in graph.findings if f.code == "L011"]
        assert len(l011) == 1
        assert "time.sleep" in l011[0].message

    def test_transitive_blocking_call_is_found(self, tmp_path):
        """The sleep hides one call deep: only the interprocedural
        fixpoint can see it."""
        path = _toy(tmp_path, "deep.py", """\
            import time

            from repro.runtime.locks import make_lock

            def pause():
                time.sleep(0.01)

            class Sleepy:
                def __init__(self):
                    self.guard = make_lock("toy.deep")

                def nap(self):
                    with self.guard:
                        pause()
            """)
        graph = analyze([path])
        assert "L011" in _codes(graph)

    def test_callback_under_lock_is_an_l012(self, tmp_path):
        path = _toy(tmp_path, "notify.py", """\
            from repro.runtime.locks import make_lock

            class Notifier:
                def __init__(self):
                    self.guard = make_lock("toy.notifier")
                    self.callbacks = []

                def fire(self):
                    with self.guard:
                        for callback in self.callbacks:
                            callback(1)
            """)
        graph = analyze([path])
        assert "L012" in _codes(graph)

    def test_l002_catches_the_locked_suffix_blind_spot(self, tmp_path):
        """``forgot()`` calls ``_add_locked()`` without the class
        lock.  The per-file L001 rule exempts ``*_locked`` methods
        (the convention says the *caller* holds the lock), so it sees
        nothing here -- the interprocedural L002 rule closes exactly
        that hole."""
        path = _toy(tmp_path, "registry.py", """\
            from repro.runtime.locks import make_lock

            class Registry:
                def __init__(self):
                    self._lock = make_lock("toy.registry")
                    self._items = {}

                def _add_locked(self, key):
                    self._items[key] = True

                def add(self, key):
                    with self._lock:
                        self._add_locked(key)

                def forgot(self, key):
                    self._add_locked(key)
            """)
        assert [f for f in lint_file(path, {}) if f.code == "L001"] \
            == []
        l002 = [f for f in analyze([path]).findings
                if f.code == "L002"]
        assert len(l002) == 1
        assert "forgot" in l002[0].message

    def test_l002_respects_a_held_lock(self, tmp_path):
        path = _toy(tmp_path, "held.py", """\
            from repro.runtime.locks import make_lock

            class Registry:
                def __init__(self):
                    self._lock = make_lock("toy.held")
                    self._items = {}

                def _add_locked(self, key):
                    self._items[key] = True

                def add(self, key):
                    with self._lock:
                        self._add_locked(key)
            """)
        assert [f for f in analyze([path]).findings
                if f.code == "L002"] == []


# ----------------------------------------------------------------------
# static: the real tree
# ----------------------------------------------------------------------

class TestRepoGraph:
    @pytest.fixture(scope="class")
    def graph(self):
        return analyze([SRC_ROOT])

    def test_src_tree_has_no_findings(self, graph):
        # suppressed sites are filtered by the CLI layer; the raw
        # graph must only contain findings with a justification
        # comment at the site
        from tools.lint import apply_suppressions
        remaining = []
        for finding in graph.findings:
            lines = Path(finding.path).read_text().splitlines()
            remaining.extend(apply_suppressions([finding], lines))
        assert remaining == []

    def test_src_tree_is_cycle_free(self, graph):
        assert graph.cycles() == []

    def test_graph_size_ratchet(self, graph):
        """The graph may shrink, never grow past its current size
        without someone editing this bound on purpose."""
        assert len(graph.locks) <= 17, sorted(graph.locks)
        assert len(graph.edges) <= 21, sorted(graph.edges)

    def test_every_lock_bearing_module_is_covered(self, graph):
        expected = set()
        for path in SRC_ROOT.rglob("*.py"):
            text = path.read_text()
            if "make_lock(" in text or "make_rlock(" in text:
                expected.add("repro." + ".".join(
                    path.relative_to(SRC_ROOT.parent)
                    .with_suffix("").parts[1:]))
        # the factory itself and the sanitizer are infrastructure,
        # not analyzed participants
        expected -= {"repro.runtime.locks",
                     "repro.testing.lockcheck"}
        covered = {decl.module for decl in graph.locks.values()}
        assert expected <= covered, expected - covered

    def test_blocking_allowlist_names_known_locks(self, graph):
        assert lockcheck.BLOCKING_HOLD_ALLOWED <= set(graph.locks)

    def test_stacked_locks_agree_and_are_known(self, graph):
        from tools.lint.lockgraph import STACKED_LOCKS
        assert lockcheck.STACKED_LOCKS == STACKED_LOCKS
        assert STACKED_LOCKS <= set(graph.locks)

    def test_no_cache_lock_and_an_edgeless_meter_lock(self, graph):
        """The query's caches take no lock; the source meter's lock
        sits on no navigation path (nothing holds it, nothing under a
        navigation takes it)."""
        assert "cache.manager" not in graph.locks
        assert not {edge for edge in graph.edges
                    if "source.meter" in edge}


# ----------------------------------------------------------------------
# dynamic: the armed sanitizer
# ----------------------------------------------------------------------

@pytest.fixture
def sanitizer():
    lockcheck.reset()
    lockcheck.arm()
    try:
        yield lockcheck
    finally:
        lockcheck.disarm()
        lockcheck.reset()


class TestRuntimeSanitizer:
    def test_cycle_formation_raises(self, sanitizer):
        a = make_lock("toy.dyn.a")
        b = make_lock("toy.dyn.b")
        with a:
            with b:
                pass
        with b:
            with pytest.raises(lockcheck.LockOrderError) as err:
                with a:
                    pass
        assert "toy.dyn" in str(err.value)

    def test_consistent_order_never_raises(self, sanitizer):
        a = make_lock("toy.dyn.c")
        b = make_lock("toy.dyn.d")
        for _ in range(3):
            with a:
                with b:
                    pass
        assert ("toy.dyn.c", "toy.dyn.d") in lockcheck.observed_edges()

    def test_self_deadlock_raises(self, sanitizer):
        guard = make_lock("toy.dyn.self")
        with guard:
            with pytest.raises(lockcheck.LockOrderError):
                guard.acquire()

    def test_rlock_reentry_is_fine(self, sanitizer):
        guard = make_rlock("toy.dyn.re")
        with guard:
            with guard:
                pass

    def test_same_name_distinct_instances_nest(self, sanitizer):
        """Stacked components share one name (buffer over buffer);
        nesting them is not a self-deadlock and not an order edge."""
        outer = make_lock("toy.dyn.stack")
        inner = make_lock("toy.dyn.stack")
        with outer:
            with inner:
                pass
        assert ("toy.dyn.stack", "toy.dyn.stack") \
            not in lockcheck.observed_edges()

    def test_blocking_under_lock_raises(self, sanitizer):
        guard = make_lock("toy.dyn.block")
        with guard:
            with pytest.raises(lockcheck.BlockingCallUnderLock) as err:
                time.sleep(0.001)
        assert "toy.dyn.block" in str(err.value)

    def test_blocking_with_allowlisted_lock_passes(self, sanitizer):
        # "buffer.component" is in BLOCKING_HOLD_ALLOWED: demand
        # fills block under the open-tree lock by design
        guard = make_lock("buffer.component")
        with guard:
            time.sleep(0.001)

    def test_blocking_without_locks_passes(self, sanitizer):
        time.sleep(0.001)

    def test_disarm_restores_plain_locks(self):
        lockcheck.reset()
        lockcheck.arm()
        lockcheck.disarm()
        lock = make_lock("toy.dyn.plain")
        assert type(lock) is type(threading.Lock())
        with lock:
            time.sleep(0.001)  # guards removed with the factory

    def test_cross_thread_abba_is_caught_without_deadlocking(
            self, sanitizer):
        """The classic race: thread one takes a->b, thread two takes
        b->a.  The sanitizer turns the *potential* deadlock into a
        deterministic error on whichever thread completes the cycle,
        even if the timing never actually deadlocks."""
        a = make_lock("toy.dyn.t1")
        b = make_lock("toy.dyn.t2")
        failures = []

        def forward():
            with a:
                with b:
                    pass

        def backward():
            try:
                with b:
                    with a:
                        pass
            except lockcheck.LockOrderError as err:
                failures.append(err)

        one = threading.Thread(target=forward)
        one.start()
        one.join()
        two = threading.Thread(target=backward)
        two.start()
        two.join()
        assert len(failures) == 1


# ----------------------------------------------------------------------
# regressions for the bugs the analyzer found in the tree
# ----------------------------------------------------------------------

class TestFoundBugRegressions:
    def test_fragcache_observer_runs_outside_the_shard_lock(
            self, sanitizer):
        """fill_through used to invoke the observer while holding the
        store lock (``fragcache.store``, one lock per shard when the
        store was sharded); a reentrant observer would deadlock."""
        from repro.buffer.holes import fragment_of_tree
        from repro.runtime.fragcache import FragmentStore
        from repro.xtree import elem

        store = FragmentStore()
        held_during_observer = []

        def observer(outcome):
            held_during_observer.append(lockcheck.held_names())

        fragments = fragment_of_tree(elem("home", "x"))
        for _ in range(2):  # miss+produce, then hit
            store.fill_through(("src", "k"), 1, lambda: fragments,
                               observer=observer)
        assert held_during_observer  # observer did run
        for held in held_during_observer:
            assert not any(n.startswith("fragcache.") for n in held)

    def test_counting_document_publishes_outside_its_lock(
            self, sanitizer):
        """CountingDocument used to emit trace events while holding
        ``source.meter``; a subscriber touching the meter (stats
        collection does) would deadlock."""
        from repro.navigation.counting import CountingDocument
        from repro.navigation.materialized import MaterializedDocument
        from repro.runtime.context import Tracer
        from repro.xtree import elem

        held_during_emit = []
        tracer = Tracer()
        tracer.subscribe(
            lambda event: held_during_emit.append(
                lockcheck.held_names()))
        doc = CountingDocument(
            MaterializedDocument(elem("home", elem("addr", "a"))),
            name="homesSrc", tracer=tracer)
        pointer = doc.root()
        doc.down(pointer)
        assert held_during_emit  # events did flow
        for held in held_during_emit:
            assert "source.meter" not in held

    def test_prefilled_buffer_needs_no_lock_to_build(self, sanitizer):
        """BufferComponent.prefilled locked the buffer it was still
        building (closing a static cycle with the demand-fill path);
        the object is thread-confined until returned, so building it
        must take no lock at all."""
        from repro.buffer.component import BufferComponent
        from repro.xtree import elem

        from repro.buffer.holes import fragment_of_tree
        buffer = BufferComponent.prefilled(
            fragment_of_tree(elem("home", elem("addr", "a"))))
        assert ("pushdown.document", "buffer.component") \
            not in lockcheck.observed_edges()
        root = buffer.root()
        assert buffer.fetch(root) == "home"


# ----------------------------------------------------------------------
# agreement: dynamic subset of static
# ----------------------------------------------------------------------

class TestAgreement:
    def test_observed_edges_are_contained_in_the_static_graph(
            self, sanitizer):
        """Drive a real client/server scenario under the armed
        sanitizer and check every observed lock-order edge exists in
        the static graph -- the CI job runs the same containment over
        the full suite via ``--assert-contains``."""
        from repro.mediator.mix import MIXMediator
        from repro.navigation.materialized import MaterializedDocument
        from repro.runtime.config import EngineConfig
        from tests.fixtures import homes_of_size

        mediator = MIXMediator(
            EngineConfig(batch_navigations=True, prefetch=4))
        mediator.register_source(
            "homesSrc",
            MaterializedDocument(homes_of_size(6)["homesSrc"]))
        result = mediator.prepare(
            "CONSTRUCT <answer> $H {$H} </answer> {} "
            "WHERE homesSrc homes.home $H")
        root, stats = result.connect_remote(chunk_size=2, depth=2)
        tags = [grandchild.tag
                for child in root.children()
                for grandchild in child.children()]
        assert tags

        observed = lockcheck.observed_edges()
        assert observed  # the scenario exercised nested locks
        static = analyze([SRC_ROOT]).edge_pairs()
        unexplained = {(src, dst) for src, dst in observed
                       if src != dst and (src, dst) not in static}
        assert unexplained == set()


# ----------------------------------------------------------------------
# the default path: no wrapper, no import, no overhead
# ----------------------------------------------------------------------

class TestDefaultPathUntouched:
    def test_default_locks_are_plain_and_lockcheck_never_imports(self):
        code = dedent("""\
            import sys
            import threading
            from repro.runtime.locks import make_lock, make_rlock

            lock = make_lock("toy.sub.plain")
            assert type(lock) is type(threading.Lock()), type(lock)
            rlock = make_rlock("toy.sub.re")
            assert type(rlock) is type(threading.RLock()), type(rlock)
            loaded = [m for m in sys.modules if "lockcheck" in m]
            assert loaded == [], loaded
            print("OK")
            """)
        env = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin"}
        result = subprocess.run(
            [sys.executable, "-c", code], env=env,
            capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "OK"

    def test_env_var_arms_at_import(self):
        code = dedent("""\
            import sys
            from repro.runtime.locks import make_lock

            assert "repro.testing.lockcheck" in sys.modules
            from repro.testing import lockcheck
            assert lockcheck.armed()
            lock = make_lock("toy.sub.armed")
            assert type(lock).__name__ == "_SanitizedLock", type(lock)
            print("OK")
            """)
        env = {"PYTHONPATH": str(REPO_ROOT / "src"),
               "PATH": "/usr/bin",
               "REPRO_LOCK_SANITIZER": "1"}
        result = subprocess.run(
            [sys.executable, "-c", code], env=env,
            capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "OK"


# ----------------------------------------------------------------------
# docs: PROTOCOLS.md stays in sync with the code
# ----------------------------------------------------------------------

class TestDocsSync:
    @pytest.fixture(scope="class")
    def section(self):
        text = (REPO_ROOT / "docs" / "PROTOCOLS.md").read_text()
        assert "## Concurrency discipline" in text
        part = text.split("## Concurrency discipline", 1)[1]
        return part.split("\n## ", 1)[0]

    def test_linter_codes_table_matches_registry(self, section):
        import re
        from tools.lint import CODES
        for code, info in CODES.items():
            row = "| `%s` | %s | `%s` |" % (code, info.severity,
                                            info.title)
            assert row in section, \
                "PROTOCOLS.md missing/outdated: %s" % row
        documented = set(re.findall(r"\| `([A-Z]\d{3})` \|", section))
        assert documented == set(CODES)

    def test_lock_registry_table_matches_static_graph(self, section):
        import re
        rows = re.findall(
            r"\| `([a-z][a-z0-9_.]+)` \| (R?Lock) \| `([a-z0-9_.]+)`",
            section)
        documented = {name: (kind, module)
                      for name, kind, module in rows}
        graph = analyze([SRC_ROOT])
        actual = {name: ("RLock" if decl.reentrant else "Lock",
                         decl.module)
                  for name, decl in graph.locks.items()}
        assert documented == actual

    def test_allowlist_is_documented(self, section):
        for name in lockcheck.BLOCKING_HOLD_ALLOWED:
            assert "`%s`" % name in section


# ----------------------------------------------------------------------
# CLI: scoping and the containment flag
# ----------------------------------------------------------------------

class TestCliScoping:
    def test_non_src_roots_get_hygiene_rules_only(self, tmp_path):
        """A bare except outside ``src/`` is still X100, but the
        lock rules (full-tree analysis) only run over the runtime."""
        from tools.lint import lint_file_hygiene
        path = _toy(tmp_path, "bench.py", """\
            def run():
                try:
                    pass
                except:
                    pass
            """)
        codes = [f.code for f in lint_file_hygiene(path)]
        assert codes == ["X100"]

    def test_lock_graph_dump_and_containment_roundtrip(self, tmp_path):
        """--lock-graph writes JSON + DOT; --assert-contains accepts
        a dump whose edges all exist and rejects one that invents an
        edge."""
        from tools.lint.cli import main

        graph_path = tmp_path / "lockgraph.json"
        rc = main(["--lock-graph", str(graph_path)])
        assert rc == 0
        assert graph_path.exists()
        assert graph_path.with_suffix(".dot").exists()

        good = tmp_path / "good.jsonl"
        good.write_text(
            '{"edges": [["buffer.component", "fragcache.store"]]}\n')
        assert main(["--lock-graph", str(graph_path),
                     "--assert-contains", str(good)]) == 0

        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            '{"edges": [["fragcache.store", "buffer.component"]]}\n')
        assert main(["--lock-graph", str(graph_path),
                     "--assert-contains", str(bad)]) != 0
