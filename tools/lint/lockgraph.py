"""Interprocedural lock-order analysis (L002, L010, L011, L012).

Builds the whole-repo lock-order graph: nodes are named locks (see
``repro.runtime.locks``), and an edge A -> B means some call path can
acquire B while A is held.  Edges come from two shapes:

* lexical nesting -- ``with a: ... with b:`` in one function, and
* call propagation -- ``with a: self.method()`` where ``method``
  (transitively, through resolved ``self.``/module/virtual calls, or
  a call through a class op table such as ``Session.OPS``, which may
  reach every method in the table) acquires B.

Function summaries (locks acquired, blocking operations reached,
foreign callbacks invoked) are computed to a fixpoint over the call
graph, then every call site made under a held lock contributes edges
and findings:

L010  lock-order-cycle
    The name graph has a cycle: two call paths acquire the same locks
    in opposite orders -- a deadlock waiting for the right
    interleaving.

L011  blocking-call-under-lock
    A blocking operation (socket send/recv/accept/connect,
    ``wrapper.fill``, ``future.result``, ``queue.get``,
    ``time.sleep``, ``event.wait``, ``thread.join``) is reachable
    while a lock is held.  Deliberate sites carry a justified
    ``# lint: allow=L011``; the runtime sanitizer's
    ``BLOCKING_HOLD_ALLOWED`` mirrors exactly those locks.

L012  callback-under-lock
    A foreign callable (callback parameter, subscriber, factory) or a
    tracer emit/span -- which fans out to arbitrary subscribers -- is
    reachable while a lock is held.  Foreign code under your lock can
    re-enter you in any order.

L002  interprocedural-lock-consistency
    A ``*_locked``-suffix helper is called at a site where none of its
    class's locks are held (callers that are themselves ``*_locked``
    helpers are trusted, as are constructors).  This closes L001's
    blind spot: L001 *exempts* ``*_locked`` helpers, so a caller that
    forgot the lock was previously invisible.

Self-edges (A while A) are skipped: re-entrant locks re-enter by
design, and distinct instances sharing a name (stacked buffers) have
no static order; instance-level self-deadlock on a plain lock is the
runtime sanitizer's job.  For the same reason an edge between two
:data:`STACKED_LOCKS` is kept in the graph but closes no cycle: those
components stack in a mediator tree (a client's buffer over its
session channel over an exported query over source buffers), each
calls only down the stack, so their instances are ordered by the
tree, not by name.

The graph is dumped as JSON + DOT via
``python -m tools.lint --lock-graph lockgraph.json``, and
``--assert-contains observed.jsonl`` checks sanitizer-observed edges
for containment (the dynamic-subset-of-static agreement gate).
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Dict, Iterable, List, Optional, Sequence,
                    Set, Tuple)

from .findings import Finding
from .rules import is_lock_creation, lock_creation_name
from .symbols import (ClassInfo, FuncInfo, LockDecl, ModuleInfo,
                      Program, _hint_for)

#: Method names that block on the network whatever the receiver is.
_SOCKET_METHODS = frozenset({"accept", "recv", "recv_into", "sendall",
                             "connect"})
#: ``.send(...)`` only counts with a socket-shaped receiver name.
_SOCKET_RECV_HINTS = ("sock", "conn", "listener", "peer", "client")
#: ``.wait()`` / ``.join()`` / ``.get()`` receivers that block.
_WAIT_HINTS = ("event", "waiter", "cond", "done", "stop")
_JOIN_HINTS = ("thread", "worker")
_QUEUE_HINTS = ("queue", "jobs", "inbox")
#: Demand-fill entry points: blocking by contract (source round trip).
_FILL_METHODS = frozenset({"fill", "fill_batch"})
#: The polymorphic wrapper/document protocol surface: calls to these
#: through a seam-typed or seam-named receiver fan out to every
#: implementation (duck-typed proxies do not inherit the base).
_SEAM_METHODS = frozenset({"fill", "fill_batch", "get_root", "down",
                           "right", "fetch", "select", "push",
                           "v_down", "v_right", "v_fetch", "v_select"})
_FILL_RECV_HINTS = ("server", "wrapper", "channel", "inner", "source",
                    "upstream", "document")

#: Parameter/local names conventionally holding foreign callables.
_CALLBACK_NAMES = frozenset({
    "observer", "callback", "cb", "hook", "factory", "subscriber",
    "fn", "func", "on_evict", "on_event", "thunk",
})

#: Locks of components that stack in a mediator tree and are ordered
#: by it (see the module docstring); mirrored, name for name, by
#: ``repro.testing.lockcheck.STACKED_LOCKS``.
STACKED_LOCKS = frozenset({"buffer.component", "client.channel"})

#: Modules whose locks are sanitizer/infra plumbing, not part of the
#: analyzed order (the guards must not observe themselves).
_EXCLUDED_MODULES = ("repro.runtime.locks", "repro.testing.lockcheck")


@dataclass
class _Summary:
    func: FuncInfo
    acquires: Set[str] = field(default_factory=set)
    callees: Set[str] = field(default_factory=set)
    blocking: Set[str] = field(default_factory=set)  # op descriptions
    invokes_callback: bool = False
    #: (callee qnames, held names, line) -- resolved after fixpoint
    held_calls: List[Tuple[Tuple[str, ...], Tuple[str, ...], int]] = \
        field(default_factory=list)


@dataclass
class Edge:
    src: str
    dst: str
    path: str
    line: int
    via: str


class LockGraph:
    """Result of the whole-program analysis."""

    def __init__(self) -> None:
        self.locks: Dict[str, LockDecl] = {}
        self.edges: Dict[Tuple[str, str], Edge] = {}
        self.findings: List[Finding] = []
        self.unresolved: List[str] = []

    def edge_pairs(self) -> Set[Tuple[str, str]]:
        return set(self.edges)

    def add_edge(self, src: str, dst: str, path: Path, line: int,
                 via: str) -> None:
        if src == dst:
            return  # see module docstring: no static self-edges
        key = (src, dst)
        if key not in self.edges:
            self.edges[key] = Edge(src, dst, str(path), line, via)

    # -- dumps ---------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        nodes = []
        for name in sorted(self.locks):
            decl = self.locks[name]
            nodes.append({
                "name": name,
                "reentrant": decl.reentrant,
                "anonymous": decl.anonymous,
                "module": decl.module,
                "attr": decl.attr,
            })
        edges = []
        for src, dst in sorted(self.edges):
            edge = self.edges[(src, dst)]
            edges.append({
                "src": src, "dst": dst, "path": edge.path,
                "line": edge.line, "via": edge.via,
            })
        return {"nodes": nodes, "edges": edges,
                "unresolved": sorted(self.unresolved)}

    def to_dot(self) -> str:
        lines = ["digraph lockorder {", "  rankdir=LR;",
                 "  node [shape=box, fontsize=10];"]
        for name in sorted(self.locks):
            decl = self.locks[name]
            shape = ' style="rounded"' if decl.reentrant else ""
            lines.append('  "%s"%s;' % (name, shape))
        for src, dst in sorted(self.edges):
            edge = self.edges[(src, dst)]
            lines.append('  "%s" -> "%s" [label="%s:%d"];'
                         % (src, dst,
                            Path(edge.path).name, edge.line))
        lines.append("}")
        return "\n".join(lines) + "\n"

    def cycles(self) -> List[List[str]]:
        """Strongly connected components with more than one lock
        (edges between two stacked locks carry no name order)."""
        graph: Dict[str, List[str]] = {}
        for src, dst in self.edges:
            graph.setdefault(src, [])
            graph.setdefault(dst, [])
            if not (src in STACKED_LOCKS and dst in STACKED_LOCKS):
                graph[src].append(dst)
        index: Dict[str, int] = {}
        low: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        counter = [0]
        sccs: List[List[str]] = []

        def strongconnect(node: str) -> None:
            # Iterative Tarjan (the graph is small, but recursion
            # limits are not a thing to gamble tooling on).
            work = [(node, 0)]
            while work:
                current, pointer = work[-1]
                if pointer == 0:
                    index[current] = low[current] = counter[0]
                    counter[0] += 1
                    stack.append(current)
                    on_stack.add(current)
                recurse = False
                succs = graph.get(current, [])
                for i in range(pointer, len(succs)):
                    succ = succs[i]
                    if succ not in index:
                        work[-1] = (current, i + 1)
                        work.append((succ, 0))
                        recurse = True
                        break
                    if succ in on_stack:
                        low[current] = min(low[current], index[succ])
                if recurse:
                    continue
                if low[current] == index[current]:
                    scc = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        scc.append(member)
                        if member == current:
                            break
                    if len(scc) > 1:
                        sccs.append(sorted(scc))
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[current])

        for node in sorted(graph):
            if node not in index:
                strongconnect(node)
        return sccs


class _Env:
    """Flow-insensitive local type environment for one function."""

    def __init__(self) -> None:
        self.types: Dict[str, Set[str]] = {}
        self.elems: Dict[str, Set[str]] = {}
        self.locks: Dict[str, LockDecl] = {}
        self.callables: Set[str] = set()
        #: locals bound to an entry of a class op table -> the
        #: methods a call through them can reach
        self.ops: Dict[str, List[FuncInfo]] = {}


class _FunctionScanner(ast.NodeVisitor):
    """Collects acquisitions, calls, blocking ops and callbacks for
    one function, tracking the lexically held lock set."""

    def __init__(self, analyzer: "Analyzer", func: FuncInfo,
                 cls: Optional[ClassInfo], env: _Env,
                 summary: _Summary, path: Path) -> None:
        self.analyzer = analyzer
        self.func = func
        self.cls = cls
        self.env = env
        self.summary = summary
        self.path = path

    # -- entry ---------------------------------------------------------

    def scan(self) -> None:
        body = getattr(self.func.node, "body", [])
        self._scan_block(body, ())

    # -- statement walking with a held set -----------------------------

    def _scan_block(self, stmts: Sequence[ast.stmt],
                    held: Tuple[str, ...]) -> None:
        extra: List[str] = []
        for stmt in stmts:
            current = held + tuple(extra)
            released = self._release_of(stmt)
            if released is not None and released in extra:
                extra.remove(released)
                continue
            acquired = self._acquire_of(stmt)
            if acquired is not None:
                lock_name, inner = acquired
                self._record_acquisition(lock_name, stmt.lineno,
                                         current)
                if isinstance(stmt, ast.If):
                    self._scan_exprs(stmt.test, current)
                    self._scan_block(stmt.body,
                                     current + (lock_name,))
                    self._scan_block(stmt.orelse, current)
                else:
                    extra.append(lock_name)
                    if inner is not None:
                        self._scan_exprs(inner, current)
                continue
            self._scan_stmt(stmt, current)

    def _scan_stmt(self, stmt: ast.stmt,
                   held: Tuple[str, ...]) -> None:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            acquired: List[str] = []
            for item in stmt.items:
                lock_name = self._resolve_lock(item.context_expr)
                if lock_name is not None:
                    self._record_acquisition(
                        lock_name, item.context_expr.lineno,
                        held + tuple(acquired))
                    acquired.append(lock_name)
                else:
                    self._scan_exprs(item.context_expr,
                                     held + tuple(acquired))
            self._scan_block(stmt.body, held + tuple(acquired))
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # a nested def runs later, not here: scan with nothing
            # held (closures still see the enclosing env)
            self._scan_block(stmt.body, ())
        elif isinstance(stmt, ast.ClassDef):
            return
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_exprs(stmt.iter, held)
            self._scan_block(stmt.body, held)
            self._scan_block(stmt.orelse, held)
        elif isinstance(stmt, ast.While):
            self._scan_exprs(stmt.test, held)
            self._scan_block(stmt.body, held)
            self._scan_block(stmt.orelse, held)
        elif isinstance(stmt, ast.If):
            self._scan_exprs(stmt.test, held)
            self._scan_block(stmt.body, held)
            self._scan_block(stmt.orelse, held)
        elif isinstance(stmt, ast.Try):
            self._scan_block(stmt.body, held)
            for handler in stmt.handlers:
                self._scan_block(handler.body, held)
            self._scan_block(stmt.orelse, held)
            self._scan_block(stmt.finalbody, held)
        else:
            for value in ast.iter_child_nodes(stmt):
                if isinstance(value, ast.expr):
                    self._scan_exprs(value, held)

    def _scan_exprs(self, node: ast.expr,
                    held: Tuple[str, ...]) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Lambda):
                continue
            if isinstance(sub, ast.Call):
                self._visit_call(sub, held)
            elif isinstance(sub, ast.Attribute) \
                    and isinstance(sub.ctx, ast.Load):
                self._visit_property(sub, held)

    def _visit_property(self, node: ast.Attribute,
                        held: Tuple[str, ...]) -> None:
        """An attribute *read* that resolves to a property getter is a
        call: ``server.active_sessions`` runs
        :meth:`MediatorServer.active_sessions`, which takes the
        server lock.  Resolved like a zero-argument
        method call and folded into the same callee summaries."""
        props = self.analyzer.properties_by_name.get(node.attr)
        if not props:
            return
        program = self.analyzer.program
        recv = node.value
        on_self = isinstance(recv, ast.Name) and recv.id == "self" \
            and self.cls is not None
        if on_self:
            targets = program.resolve_method({self.cls.name},
                                             node.attr)
        else:
            types = self._types_of(recv)
            targets = program.resolve_method(types, node.attr) \
                if types else []
        prop_qnames = {p.qname for p in props}
        targets = [t for t in targets if t.qname in prop_qnames]
        if not targets and len(props) == 1 and not on_self:
            # a property name defined exactly once program-wide
            # resolves even without receiver types (``self.x`` that
            # is no property of the class is a plain attribute)
            targets = list(props)
        if targets:
            qnames = tuple(sorted(t.qname for t in targets))
            self.summary.callees.update(qnames)
            if held:
                self.summary.held_calls.append(
                    (qnames, held, node.lineno))

    # -- acquire()/release() statement forms ---------------------------

    def _acquire_of(self, stmt: ast.stmt
                    ) -> Optional[Tuple[str, Optional[ast.expr]]]:
        """``x.acquire(...)`` as a statement, assignment RHS or if
        test: (lock name, extra expr to scan) -- models the
        try/finally acquire pattern."""
        call: Optional[ast.expr] = None
        if isinstance(stmt, ast.Expr):
            call = stmt.value
        elif isinstance(stmt, ast.Assign):
            call = stmt.value
        elif isinstance(stmt, ast.If):
            call = stmt.test
        if isinstance(call, ast.UnaryOp):
            call = call.operand
        if not (isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "acquire"):
            return None
        lock_name = self._resolve_lock(call.func.value)
        if lock_name is None:
            return None
        return lock_name, None

    def _release_of(self, stmt: ast.stmt) -> Optional[str]:
        if not (isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Call)
                and isinstance(stmt.value.func, ast.Attribute)
                and stmt.value.func.attr == "release"):
            return None
        return self._resolve_lock(stmt.value.func.value)

    # -- resolution ----------------------------------------------------

    def _resolve_lock(self, expr: ast.expr) -> Optional[str]:
        decl = self._resolve_lock_decl(expr)
        if decl is not None:
            return decl.name
        # A lock-shaped expression we could not resolve is a coverage
        # hole worth surfacing, not silently dropping.
        if isinstance(expr, ast.Attribute) and "lock" in expr.attr:
            self.analyzer.graph.unresolved.append(
                "%s:%d: unresolved lock expression %s in %s"
                % (self.path, expr.lineno, ast.dump(expr)[:80],
                   self.func.qname))
        return None

    def _resolve_lock_decl(self, expr: ast.expr
                           ) -> Optional[LockDecl]:
        program = self.analyzer.program
        if isinstance(expr, ast.Name):
            if expr.id in self.env.locks:
                return self.env.locks[expr.id]
            module = program.modules.get(self.func.module)
            if module and expr.id in module.module_locks:
                return module.module_locks[expr.id]
            return None
        if not isinstance(expr, ast.Attribute):
            return None
        recv = expr.value
        if isinstance(recv, ast.Name) and recv.id == "self":
            if self.cls is None:
                return None
            return program.lock_for_attr(self.cls, expr.attr)
        for type_name in self._types_of(recv):
            for cls in program.classes_by_name.get(type_name, []):
                decl = program.lock_for_attr(cls, expr.attr)
                if decl is not None:
                    return decl
        return None

    def _types_of(self, expr: ast.expr) -> Set[str]:
        program = self.analyzer.program
        if isinstance(expr, ast.Name):
            if expr.id in self.env.types:
                return self.env.types[expr.id]
            hint = _hint_for(expr.id)
            return {hint} if hint else set()
        if isinstance(expr, ast.Attribute):
            recv = expr.value
            if isinstance(recv, ast.Name) and recv.id == "self":
                if self.cls is None:
                    return set()
                return program.attr_types(self.cls, expr.attr)
            # one more hop: x.attr with x typed
            for type_name in self._types_of(recv):
                for cls in program.classes_by_name.get(type_name, []):
                    types = program.attr_types(cls, expr.attr)
                    if types:
                        return types
            hint = _hint_for(expr.attr)
            return {hint} if hint else set()
        if isinstance(expr, ast.Subscript):
            inner = expr.value
            if isinstance(inner, ast.Attribute) \
                    and isinstance(inner.value, ast.Name) \
                    and inner.value.id == "self" and self.cls:
                return program.elem_types(self.cls, inner.attr)
            if isinstance(inner, ast.Name):
                return self.env.elems.get(inner.id, set())
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name):
                if func.id == "cls" and self.cls is not None:
                    return {self.cls.name}
                if func.id in program.classes_by_name:
                    return {func.id}
            if isinstance(func, ast.Attribute):
                return self._return_types(func)
        return set()

    def _return_types(self, func: ast.Attribute) -> Set[str]:
        """Types named by the return annotation of a resolved call."""
        program = self.analyzer.program
        recv = func.value
        if isinstance(recv, ast.Name) and recv.id == "self" \
                and self.cls is not None:
            targets = program.resolve_method({self.cls.name},
                                             func.attr)
        else:
            targets = program.resolve_method(self._types_of(recv),
                                             func.attr)
        out: Set[str] = set()
        for target in targets:
            returns = getattr(target.node, "returns", None)
            if returns is not None:
                from .symbols import _annotation_names
                direct, _ = _annotation_names(returns)
                out |= direct
        return out

    def _resolve_call(self, call: ast.Call) -> List[FuncInfo]:
        program = self.analyzer.program
        func = call.func
        if isinstance(func, ast.Name) and func.id in self.env.ops:
            return self.env.ops[func.id]
        if isinstance(func, ast.Name):
            module = program.modules.get(self.func.module)
            if module and func.id in module.functions:
                return [module.functions[func.id]]
            if func.id in program.classes_by_name:
                out = []
                for cls in program.classes_by_name[func.id]:
                    init = cls.methods.get("__init__") \
                        or cls.methods.get("__post_init__")
                    if init:
                        out.append(init)
                return out
            # unique module-level function anywhere in the program
            matches = self.analyzer.functions_by_name.get(func.id, [])
            if len(matches) == 1:
                return list(matches)
            return []
        if not isinstance(func, ast.Attribute):
            return []
        recv = func.value
        if isinstance(recv, ast.Name) and recv.id == "self" \
                and self.cls is not None:
            return program.resolve_method({self.cls.name}, func.attr)
        if isinstance(recv, ast.Call) \
                and isinstance(recv.func, ast.Name) \
                and recv.func.id == "super" and self.cls is not None:
            return program.resolve_method(set(self.cls.bases),
                                          func.attr)
        types = self._types_of(recv)
        resolved = program.resolve_method(types, func.attr) \
            if types else []
        # Polymorphic seam: the LXP/document protocol methods are
        # implemented by duck-typed proxies (resilience, fault
        # injection) that do not inherit the declared base, so
        # hierarchy resolution under-approximates.  When the receiver
        # is seam-typed (LXPServer/NavigableDocument families) or
        # seam-named (``self.server``, ``self.inner``, ...), fan out
        # to every implementation -- this is what keeps dynamically
        # observed edges a subset of the static graph.
        if func.attr in _SEAM_METHODS:
            recv_name = ""
            if isinstance(recv, ast.Name):
                recv_name = recv.id
            elif isinstance(recv, ast.Attribute):
                recv_name = recv.attr
            recv_name = recv_name.lstrip("_").lower()
            seamy = (types & self.analyzer.fill_types) or (
                not types and any(h in recv_name
                                  for h in _FILL_RECV_HINTS))
            if seamy:
                matches = self.analyzer.methods_by_name.get(
                    func.attr, [])
                if func.attr in _FILL_METHODS:
                    # an LXP server also answers get_root; a class
                    # with a same-named fill (the daemon's Session
                    # op table) is not on this seam
                    matches = [
                        m for m in matches
                        if m.cls and program.resolve_method(
                            {m.cls}, "get_root")]
                seen = {t.qname for t in resolved}
                resolved = list(resolved) + [
                    m for m in matches if m.qname not in seen]
        if resolved:
            return resolved
        if types and not any(t in program.classes_by_name
                             for t in types):
            # receiver typed entirely with foreign classes (stdlib
            # ThreadPoolExecutor, socket, ...): a same-named method of
            # ours is a coincidence, not a dispatch target
            return []
        # fallback: a method name implemented by exactly one class
        matches = self.analyzer.methods_by_name.get(func.attr, [])
        if len(matches) == 1:
            return list(matches)
        return []

    # -- recording -----------------------------------------------------

    def _record_acquisition(self, name: str, line: int,
                            held: Tuple[str, ...]) -> None:
        self.summary.acquires.add(name)
        for prior in held:
            self.analyzer.graph.add_edge(
                prior, name, self.path, line,
                "%s acquires %s under %s" % (self.func.qname, name,
                                             prior))

    def _visit_call(self, call: ast.Call,
                    held: Tuple[str, ...]) -> None:
        func = call.func
        # direct blocking operation?
        blocked = self._blocking_kind(call)
        if blocked is not None:
            self.summary.blocking.add(blocked)
            if held:
                self.analyzer.report(
                    self.path, call.lineno, "L011",
                    "%s under lock(s) %s in %s"
                    % (blocked, "+".join(held), self.func.qname))
        # direct foreign-callable invocation?
        if isinstance(func, ast.Name) \
                and func.id in self.env.callables:
            self.summary.invokes_callback = True
            if held:
                self.analyzer.report(
                    self.path, call.lineno, "L012",
                    "foreign callable %s() invoked under lock(s) %s "
                    "in %s" % (func.id, "+".join(held),
                               self.func.qname))
        # L002: *_locked helpers need their class lock held
        if isinstance(func, ast.Attribute) \
                and func.attr.endswith("_locked"):
            self._check_locked_convention(call, func, held)
        targets = self._resolve_call(call)
        if targets:
            qnames = tuple(sorted(t.qname for t in targets))
            self.summary.callees.update(qnames)
            if held:
                self.summary.held_calls.append(
                    (qnames, held, call.lineno))

    def _check_locked_convention(self, call: ast.Call,
                                 func: ast.Attribute,
                                 held: Tuple[str, ...]) -> None:
        caller_name = self.func.name
        if caller_name.endswith("_locked") \
                or caller_name in ("__init__", "__post_init__",
                                   "__del__"):
            return
        program = self.analyzer.program
        recv = func.value
        owners: List[ClassInfo] = []
        if isinstance(recv, ast.Name) and recv.id == "self" \
                and self.cls is not None:
            owners = [self.cls]
        else:
            for type_name in self._types_of(recv):
                owners.extend(
                    program.classes_by_name.get(type_name, []))
        if not owners:
            return
        required: Set[str] = set()
        for owner in owners:
            required |= program.class_locks(owner)
        if not required:
            return
        if not required & set(held):
            self.analyzer.report(
                self.path, call.lineno, "L002",
                "%s() called in %s without holding %s (the _locked "
                "suffix promises the caller already holds the lock)"
                % (func.attr, self.func.qname,
                   " or ".join(sorted(required))))

    def _blocking_kind(self, call: ast.Call) -> Optional[str]:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return None
        attr = func.attr
        recv = func.value
        recv_name = ""
        if isinstance(recv, ast.Name):
            recv_name = recv.id
        elif isinstance(recv, ast.Attribute):
            recv_name = recv.attr
        recv_name = recv_name.lstrip("_").lower()
        if attr == "sleep" and isinstance(recv, ast.Name) \
                and recv.id == "time":
            return "time.sleep"
        if attr in _SOCKET_METHODS:
            return "socket.%s" % attr
        if attr == "send" and any(h in recv_name
                                  for h in _SOCKET_RECV_HINTS):
            return "socket.send"
        if attr == "result":
            return "future.result"
        if attr == "get" and any(h in recv_name
                                 for h in _QUEUE_HINTS):
            return "queue.get"
        if attr == "wait" and any(h in recv_name
                                  for h in _WAIT_HINTS):
            return "event.wait"
        if attr == "join" and any(h in recv_name
                                  for h in _JOIN_HINTS):
            return "thread.join"
        if attr in _FILL_METHODS:
            types = self._types_of(recv)
            fillers = self.analyzer.fill_types
            if (types & fillers) or (not types and any(
                    h in recv_name for h in _FILL_RECV_HINTS)):
                return "wrapper.%s" % attr
        return None


def _is_property_getter(method: FuncInfo) -> bool:
    """Whether ``method`` is decorated ``@property`` (or
    ``@cached_property``) -- setters/deleters are assignments, not
    reads, and are excluded."""
    for deco in getattr(method.node, "decorator_list", []):
        if isinstance(deco, ast.Name) \
                and deco.id in ("property", "cached_property"):
            return True
        if isinstance(deco, ast.Attribute) \
                and deco.attr == "cached_property":
            return True
    return False


class Analyzer:
    """Whole-program driver: summaries to fixpoint, then edges and
    findings."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.graph = LockGraph()
        self.summaries: Dict[str, _Summary] = {}
        self.functions_by_name: Dict[str, List[FuncInfo]] = {}
        self.methods_by_name: Dict[str, List[FuncInfo]] = {}
        self.properties_by_name: Dict[str, List[FuncInfo]] = {}
        self.fill_types: Set[str] = set()
        self._index()

    def _index(self) -> None:
        for mod in self.program.modules.values():
            for func in mod.functions.values():
                self.functions_by_name.setdefault(
                    func.name, []).append(func)
            for cls in mod.classes.values():
                for method in cls.methods.values():
                    self.methods_by_name.setdefault(
                        method.name, []).append(method)
        # every type in the LXPServer hierarchy is a fill target; the
        # lazy-operator family joins it because demand fills cross
        # into plan operators (VirtualDocument.down -> op.v_down)
        for root in ("LXPServer", "NavigableDocument", "LazyOperator"):
            if root in self.program.classes_by_name:
                self.fill_types.add(root)
                self.fill_types |= self.program.subclasses(root)
        # property getters: attribute *reads* that run code (and may
        # take locks), resolved like zero-argument calls
        for methods in self.methods_by_name.values():
            for method in methods:
                if _is_property_getter(method):
                    self.properties_by_name.setdefault(
                        method.name, []).append(method)

    def report(self, path: Path, line: int, code: str,
               message: str) -> None:
        self.graph.findings.append(Finding(path, line, code, message))

    # -- analysis ------------------------------------------------------

    def run(self) -> LockGraph:
        for mod in self.program.modules.values():
            if mod.modname in _EXCLUDED_MODULES:
                continue
            for decl in mod.module_locks.values():
                self.graph.locks.setdefault(decl.name, decl)
            for cls in mod.classes.values():
                for decl in cls.lock_attrs.values():
                    self.graph.locks.setdefault(decl.name, decl)
            for func in self._all_funcs(mod):
                self._scan_function(mod, func)
        self._fixpoint()
        self._propagate()
        self._find_cycles()
        return self.graph

    def _all_funcs(self, mod: ModuleInfo) -> Iterable[FuncInfo]:
        for func in mod.functions.values():
            yield func
        for cls in mod.classes.values():
            for method in cls.methods.values():
                yield method

    def _scan_function(self, mod: ModuleInfo,
                       func: FuncInfo) -> None:
        cls = mod.classes.get(func.cls) if func.cls else None
        env = self._build_env(mod, cls, func)
        if mod.modname not in _EXCLUDED_MODULES:
            # locks born as locals (e.g. the load generator's cursor
            # lock) are nodes of the graph too
            for decl in env.locks.values():
                self.graph.locks.setdefault(decl.name, decl)
        summary = _Summary(func)
        self.summaries[func.qname] = summary
        scanner = _FunctionScanner(self, func, cls, env, summary,
                                   mod.path)
        scanner.scan()

    def _build_env(self, mod: ModuleInfo,
                   cls: Optional[ClassInfo],
                   func: FuncInfo) -> _Env:
        from .symbols import _annotation_names, _param_types
        env = _Env()
        env.types.update(_param_types(func.node))
        args = getattr(func.node, "args", None)
        if args is not None:
            for arg in (list(args.posonlyargs) + list(args.args)
                        + list(args.kwonlyargs)):
                direct, _ = _annotation_names(arg.annotation)
                if "<callable>" in direct \
                        or arg.arg in _CALLBACK_NAMES:
                    env.callables.add(arg.arg)
        nodes = list(ast.walk(func.node))  # type: ignore[arg-type]
        # two passes: ast.walk is breadth-first, so a ``for x in xs``
        # can be seen before the ``xs = ...`` assignment that types it
        for _ in range(2):
            for node in nodes:
                if isinstance(node, ast.Assign) \
                        and len(node.targets) == 1 \
                        and isinstance(node.targets[0], ast.Name):
                    name = node.targets[0].id
                    reentrant = is_lock_creation(node.value)
                    if reentrant is not None:
                        lock_name = lock_creation_name(node.value)
                        env.locks[name] = LockDecl(
                            name=lock_name or "%s.%s.%s" % (
                                mod.modname.rsplit(".", 1)[-1],
                                func.name, name),
                            reentrant=reentrant,
                            anonymous=lock_name is None,
                            module=mod.modname, cls=func.cls,
                            attr=name, line=node.lineno)
                        continue
                    if isinstance(node.value, ast.Name) \
                            and node.value.id in mod.module_locks:
                        env.locks[name] = \
                            mod.module_locks[node.value.id]
                        continue
                    ops = self._op_table_entries(cls, node.value)
                    if ops:
                        env.ops[name] = ops
                    types = self._static_expr_types(mod, cls, env,
                                                    node.value)
                    if types:
                        env.types.setdefault(name, set()).update(types)
                    elems = self._static_elem_types(mod, cls, env,
                                                    node.value)
                    if elems:
                        env.elems.setdefault(name, set()).update(elems)
                elif isinstance(node, (ast.For, ast.AsyncFor)) \
                        and isinstance(node.target, ast.Name):
                    name = node.target.id
                    elems = self._static_elem_types(mod, cls, env,
                                                    node.iter)
                    if elems:
                        env.types.setdefault(name, set()).update(elems)
                    if _iter_name_is_callbacky(node.iter) \
                            or name in _CALLBACK_NAMES:
                        env.callables.add(name)
        return env

    def _op_table_entries(self, cls: Optional[ClassInfo],
                          expr: ast.expr) -> List[FuncInfo]:
        """The methods an expression reading a class op table
        (``self.OPS.get(op)``, ``Session.OPS[op]``) can pick."""
        out: List[FuncInfo] = []
        for sub in ast.walk(expr):
            if not (isinstance(sub, ast.Attribute)
                    and isinstance(sub.value, ast.Name)):
                continue
            if sub.value.id == "self":
                owners = [cls] if cls is not None else []
            else:
                owners = self.program.classes_by_name.get(
                    sub.value.id, [])
            for owner in owners:
                out.extend(owner.methods[name] for name
                           in owner.op_tables.get(sub.attr, ()))
        return out

    def _static_expr_types(self, mod: ModuleInfo,
                           cls: Optional[ClassInfo],
                           env: _Env, expr: ast.expr) -> Set[str]:
        program = self.program
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name):
                if func.id == "cls" and cls is not None:
                    return {cls.name}
                if func.id in program.classes_by_name:
                    return {func.id}
            # self._waiters.pop(key) / .get(key) -> Dict value types
            if isinstance(func, ast.Attribute) \
                    and func.attr in ("pop", "get"):
                elems = self._static_elem_types(mod, cls, env,
                                                func.value)
                if elems:
                    return elems
            if isinstance(func, ast.Attribute) \
                    and isinstance(func.value, ast.Name) \
                    and func.value.id == "self" and cls is not None:
                from .symbols import _annotation_names
                out: Set[str] = set()
                for target in program.resolve_method({cls.name},
                                                     func.attr):
                    returns = getattr(target.node, "returns", None)
                    if returns is not None:
                        direct, _ = _annotation_names(returns)
                        out |= direct
                return out
        elif isinstance(expr, ast.Attribute) \
                and isinstance(expr.value, ast.Name) \
                and expr.value.id == "self" and cls is not None:
            return program.attr_types(cls, expr.attr)
        elif isinstance(expr, ast.Name):
            return env.types.get(expr.id, set())
        elif isinstance(expr, ast.BoolOp):
            out = set()
            for operand in expr.values:
                out |= self._static_expr_types(mod, cls, env, operand)
            return out
        return set()

    def _static_elem_types(self, mod: ModuleInfo,
                           cls: Optional[ClassInfo],
                           env: _Env, expr: ast.expr) -> Set[str]:
        """Element types of an iterable expression."""
        program = self.program
        if isinstance(expr, ast.Attribute) \
                and isinstance(expr.value, ast.Name) \
                and expr.value.id == "self" and cls is not None:
            return program.elem_types(cls, expr.attr)
        if isinstance(expr, ast.Name):
            return env.elems.get(expr.id, set())
        if isinstance(expr, ast.Call):
            func = expr.func
            # list(x) / sorted(x) / tuple(x) are transparent
            if isinstance(func, ast.Name) \
                    and func.id in ("list", "sorted", "tuple") \
                    and expr.args:
                return self._static_elem_types(mod, cls, env,
                                               expr.args[0])
            # self._handlers.values() -> Dict value types
            if isinstance(func, ast.Attribute) \
                    and func.attr == "values":
                return self._static_elem_types(mod, cls, env,
                                               func.value)
        return set()

    # -- fixpoint + propagation ----------------------------------------

    def _fixpoint(self) -> None:
        changed = True
        while changed:
            changed = False
            for summary in self.summaries.values():
                for callee in summary.callees:
                    sub = self.summaries.get(callee)
                    if sub is None:
                        continue
                    before = (len(summary.acquires),
                              len(summary.blocking),
                              summary.invokes_callback)
                    summary.acquires |= sub.acquires
                    summary.blocking |= sub.blocking
                    summary.invokes_callback |= sub.invokes_callback
                    after = (len(summary.acquires),
                             len(summary.blocking),
                             summary.invokes_callback)
                    if before != after:
                        changed = True

    def _propagate(self) -> None:
        for summary in self.summaries.values():
            mod = self.program.modules.get(summary.func.module)
            path = mod.path if mod else Path("<unknown>")
            for qnames, held, line in summary.held_calls:
                reached: Set[str] = set()
                blocked: Set[str] = set()
                callbacks = False
                for qname in qnames:
                    sub = self.summaries.get(qname)
                    if sub is None:
                        continue
                    reached |= sub.acquires
                    blocked |= sub.blocking
                    callbacks |= sub.invokes_callback
                for prior in held:
                    for name in reached:
                        self.graph.add_edge(
                            prior, name, path, line,
                            "%s -> %s acquires %s under %s"
                            % (summary.func.qname,
                               "|".join(qnames[:2]), name, prior))
                if blocked:
                    self.report(
                        path, line, "L011",
                        "call from %s under lock(s) %s reaches "
                        "blocking op %s"
                        % (summary.func.qname, "+".join(held),
                           sorted(blocked)[0]))
                if callbacks:
                    self.report(
                        path, line, "L012",
                        "call from %s under lock(s) %s reaches a "
                        "foreign callback/tracer subscriber"
                        % (summary.func.qname, "+".join(held)))

    def _find_cycles(self) -> None:
        for cycle in self.graph.cycles():
            # anchor the finding at the first edge inside the cycle
            members = set(cycle)
            anchor = None
            for (src, dst), edge in sorted(self.graph.edges.items()):
                if src in members and dst in members:
                    anchor = edge
                    break
            if anchor is None:
                continue
            self.report(
                Path(anchor.path), anchor.line, "L010",
                "lock-order cycle %s (deadlock potential; first "
                "edge via %s)" % (" -> ".join(cycle + cycle[:1]),
                                  anchor.via))


def _iter_name_is_callbacky(expr: ast.expr) -> bool:
    name = ""
    if isinstance(expr, ast.Name):
        name = expr.id
    elif isinstance(expr, ast.Attribute):
        name = expr.attr
    elif isinstance(expr, ast.Call):
        return _iter_name_is_callbacky(expr.func.value) \
            if isinstance(expr.func, ast.Attribute) else False
    name = name.lstrip("_").lower()
    return bool(name) and any(
        name.startswith(stem) for stem in
        ("callback", "subscriber", "observer", "hook", "listener"))


def analyze(paths: List[Path]) -> LockGraph:
    """Run the whole-program lock analysis over *paths* (directories
    expand to every ``*.py`` file beneath them)."""
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    program = Program.load(files)
    analyzer = Analyzer(program)
    return analyzer.run()


def assert_contains(graph_json: Dict[str, Any],
                    observed_lines: Iterable[str]) -> List[str]:
    """Check sanitizer-observed edges for containment in the static
    graph.  Returns human-readable misses (empty = agreement holds)."""
    static_edges = {(e["src"], e["dst"])
                    for e in graph_json.get("edges", [])}
    known = {n["name"] for n in graph_json.get("nodes", [])}
    misses = []
    for raw in observed_lines:
        raw = raw.strip()
        if not raw:
            continue
        record = json.loads(raw)
        for src, dst in record.get("edges", []):
            if src == dst:
                continue  # name-level self edges carry no order
            if (src, dst) not in static_edges:
                detail = ""
                if src not in known or dst not in known:
                    detail = " (unknown lock name)"
                misses.append("observed edge %s -> %s missing from "
                              "static graph%s" % (src, dst, detail))
    return sorted(set(misses))
