"""Per-file linter rules: L001, E001/E002, E003, X100-X104.

These are the single-file checks (one AST at a time); the
interprocedural lock rules (L002/L010/L011/L012) live in
:mod:`tools.lint.lockgraph`.

L001  lock-consistency
    Inside a class that guards an attribute with a lock anywhere
    (i.e. some method mutates ``self.attr`` under ``with self._lock``),
    every other mutation of that same attribute must also happen under
    a ``with`` on one of the class's locks.  ``__init__`` and
    ``__post_init__`` are exempt (no concurrent observer exists yet),
    as are helper methods whose name ends in ``_locked`` (called with
    the lock already held, by convention -- a convention L002 now
    checks at every call site).

E001  unknown-event-name
    ``tracer.emit(layer, name)`` / ``tracer.span(layer, name)`` /
    ``context.trace(layer, name)`` with literal arguments must use a
    name registered in ``repro.runtime.observability.EVENT_NAMES``
    (spans table for ``span``, events table for ``emit``/``trace``).
    The golden traces and docs/PROTOCOLS.md key off these names.

E002  non-literal-event-name
    The ``name`` argument of those calls must be a string literal so
    the contract is checkable; the few deliberate forwarding seams
    carry an inline suppression.

E003  unbounded-metric-label
    Label keyword arguments on metric writes (``.inc(...)`` /
    ``.set(...)`` / ``.observe(...)``) must come from a small closed
    vocabulary.  A label whose value space grows with traffic --
    session ids, trace ids, hole ids, peer addresses, query text --
    makes the registry (and any scraping Prometheus) grow without
    bound; put such values in trace events or the flight recorder
    instead.

X100  bare-except
    ``except:`` swallows ``KeyboardInterrupt``/``SystemExit``; name
    the exception class.

X101  real-sleep
    ``time.sleep`` outside the one sanctioned site (the ``SystemClock``
    in ``runtime/resilience.py``) breaks the deterministic testing
    clock and slows the suite.

X102  unbounded-socket
    Network calls must carry explicit timeouts; a forgotten one is an
    unbounded hang.  Flagged: ``socket.create_connection(...)``
    without a ``timeout=`` keyword, and any file that creates sockets
    (``socket.socket(...)``) or accepts connections (``.accept()``)
    without ever calling ``.settimeout(...)`` /
    ``socket.setdefaulttimeout(...)``.

X103  raw-frame-io
    ``repro/server/wire.py`` is the only module that writes or reads
    an LXP frame.  Flagged anywhere else: a ``struct`` call with the
    length-prefix format (``">I"`` / ``"!I"``), and ``.sendall(...)``
    / ``.recv(...)`` / ``.recv_into(...)`` on anything -- speak
    through ``send_frame`` / ``recv_frame`` / ``exchange`` instead, so
    the frame cap, the truncation taxonomy and the error table apply.
    The transport fault kit's deliberately malformed write carries
    the one suppression.

X104  unused-import
    A name an ``import`` binds that the module never loads: dead
    code the size ratchet counts.  Exempt: package ``__init__``
    modules (their imports are re-exports), names listed in
    ``__all__``, ``__future__`` imports, and names read only inside
    a string annotation (``"Optional[Tracer]"``).  Applied to the
    ``src`` tree only.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .findings import Finding, apply_suppressions

#: Mutating method names on a container attribute (``self.x.append(..)``).
_MUTATOR_METHODS = frozenset({
    "append", "appendleft", "add", "extend", "insert", "update",
    "setdefault", "pop", "popleft", "popitem", "remove", "discard",
    "clear", "sort",
})

#: The one file allowed to call ``time.sleep`` (the real clock).
_SLEEP_ALLOWED = ("runtime", "resilience.py")

#: the one module allowed to touch frame bytes (X103)
_FRAME_IO_ALLOWED = ("server", "wire.py")
_LENGTH_PREFIX_FORMATS = frozenset({">I", "!I"})
_RAW_SOCKET_IO = frozenset({"sendall", "recv", "recv_into"})

#: Named-lock factory functions (``repro.runtime.locks``).
_LOCK_FACTORIES = frozenset({"make_lock", "make_rlock"})


def is_lock_creation(value: ast.expr) -> Optional[bool]:
    """None if *value* is not a lock creation; else its reentrancy.

    Recognizes both the raw ``threading.Lock()``/``RLock()`` /
    ``Condition()`` form and the named ``make_lock("...")`` /
    ``make_rlock("...")`` factories.
    """
    if not isinstance(value, ast.Call):
        return None
    func = value.func
    if isinstance(func, ast.Attribute):
        if func.attr in ("Lock", "Condition"):
            return False
        if func.attr == "RLock":
            return True
        if func.attr in _LOCK_FACTORIES:
            return func.attr == "make_rlock"
    elif isinstance(func, ast.Name) and func.id in _LOCK_FACTORIES:
        return func.id == "make_rlock"
    return None


def lock_creation_name(value: ast.expr) -> Optional[str]:
    """The dotted name literal of a ``make_lock``/``make_rlock`` call
    (None for raw ``threading`` locks or non-literal names)."""
    if is_lock_creation(value) is None:
        return None
    assert isinstance(value, ast.Call)
    if value.args and isinstance(value.args[0], ast.Constant) \
            and isinstance(value.args[0].value, str):
        return value.args[0].value
    return None


# ----------------------------------------------------------------------
# L001: lock-consistency
# ----------------------------------------------------------------------

def _self_attr(node: ast.AST) -> Optional[str]:
    """The attribute name if ``node`` is ``self.<attr>`` (possibly
    through a subscript), else None."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def _lock_attrs(cls: ast.ClassDef) -> Set[str]:
    """Attributes assigned a lock anywhere in the class body."""
    locks: Set[str] = set()
    for node in ast.walk(cls):
        if not isinstance(node, ast.Assign):
            continue
        if is_lock_creation(node.value) is None:
            continue
        for target in node.targets:
            attr = _self_attr(target)
            if attr is not None:
                locks.add(attr)
    return locks


def _iter_mutations(func: ast.AST
                    ) -> Iterator[Tuple[str, int, ast.AST]]:
    """Yield ``(attr, lineno, node)`` for every mutation of a
    ``self.<attr>`` inside ``func`` (without entering nested
    functions or classes -- they have their own discipline)."""

    def walk(node: ast.AST) -> Iterator[ast.AST]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef, ast.Lambda)):
                continue
            yield child
            yield from walk(child)

    for node in walk(func):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                # plain rebinds of self.attr in @property setters etc.
                # count; tuple targets unpacked
                elts = (target.elts
                        if isinstance(target, (ast.Tuple, ast.List))
                        else [target])
                for elt in elts:
                    attr = _self_attr(elt)
                    if attr is not None:
                        subscripted = isinstance(elt, ast.Subscript) \
                            or isinstance(getattr(elt, "value", None),
                                          ast.Subscript)
                        yield attr, node.lineno, subscripted
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                attr = _self_attr(target)
                if attr is not None:
                    yield attr, node.lineno, True
        elif (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATOR_METHODS):
            attr = _self_attr(node.func.value)
            if attr is not None:
                yield attr, node.lineno, True


def _with_lock_spans(func: ast.AST, locks: Set[str]
                     ) -> List[Tuple[int, int]]:
    """(start, end) line spans of ``with self.<lock>:`` blocks."""
    spans: List[Tuple[int, int]] = []
    for node in ast.walk(func):
        if not isinstance(node, ast.With):
            continue
        for item in node.items:
            attr = _self_attr(item.context_expr)
            if attr in locks:
                spans.append((node.lineno,
                              node.end_lineno or node.lineno))
                break
    return spans


def _check_lock_consistency(path: Path, tree: ast.Module
                            ) -> List[Finding]:
    findings: List[Finding] = []
    for cls in [n for n in ast.walk(tree)
                if isinstance(n, ast.ClassDef)]:
        locks = _lock_attrs(cls)
        if not locks:
            continue
        methods = [n for n in cls.body
                   if isinstance(n, (ast.FunctionDef,
                                     ast.AsyncFunctionDef))]
        # Pass 1: which attributes does this class ever mutate under
        # one of its locks?  Those are the guarded attributes.
        guarded: Set[str] = set()
        per_method: Dict[ast.AST, List[Tuple[str, int, bool]]] = {}
        for method in methods:
            spans = _with_lock_spans(method, locks)
            muts = list(_iter_mutations(method))
            per_method[method] = muts
            for attr, lineno, _sub in muts:
                if any(lo <= lineno <= hi for lo, hi in spans):
                    guarded.add(attr)
        guarded -= locks
        if not guarded:
            continue
        # Pass 2: every other mutation of a guarded attribute must
        # also be inside a with-lock block.
        for method in methods:
            if method.name in ("__init__", "__post_init__") \
                    or method.name.endswith("_locked"):
                continue
            spans = _with_lock_spans(method, locks)
            for attr, lineno, _sub in per_method[method]:
                if attr not in guarded:
                    continue
                if any(lo <= lineno <= hi for lo, hi in spans):
                    continue
                findings.append(Finding(
                    path, lineno, "L001",
                    "%s.%s mutates self.%s outside its lock (guarded "
                    "elsewhere in the class)" % (cls.name, method.name,
                                                 attr)))
    return findings


# ----------------------------------------------------------------------
# E001/E002: the event-name contract
# ----------------------------------------------------------------------

_TRACE_METHODS = {"emit": "events", "trace": "events", "span": "spans"}


def _check_event_names(path: Path, tree: ast.Module,
                       event_names: Dict[str, Dict[str, tuple]]
                       ) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _TRACE_METHODS):
            continue
        if len(node.args) < 2:
            continue  # not the (layer, name, ...) shape
        table = _TRACE_METHODS[node.func.attr]
        layer_arg, name_arg = node.args[0], node.args[1]
        if not (isinstance(layer_arg, ast.Constant)
                and isinstance(layer_arg.value, str)):
            # a forwarding seam (layer itself is a variable)
            findings.append(Finding(
                path, node.lineno, "E002",
                "%s() with non-literal layer/name cannot be checked "
                "against EVENT_NAMES" % node.func.attr))
            continue
        layer = layer_arg.value
        if not (isinstance(name_arg, ast.Constant)
                and isinstance(name_arg.value, str)):
            findings.append(Finding(
                path, node.lineno, "E002",
                "%s(%r, <non-literal>) event name must be a string "
                "literal" % (node.func.attr, layer)))
            continue
        name = name_arg.value
        known = event_names.get(table, {}).get(layer)
        if known is None:
            findings.append(Finding(
                path, node.lineno, "E001",
                "layer %r is not in the EVENT_NAMES %s table"
                % (layer, table)))
        elif name not in known:
            findings.append(Finding(
                path, node.lineno, "E001",
                "%s(%r, %r): name not in EVENT_NAMES[%r][%r]"
                % (node.func.attr, layer, name, table, layer)))
    return findings


# ----------------------------------------------------------------------
# E003: unbounded metric label values
# ----------------------------------------------------------------------

#: metric write methods whose keywords are label names
_METRIC_WRITE_METHODS = frozenset({"inc", "set", "observe"})

#: metric factory methods -- a write chained off one of these is
#: unambiguously a metric write (not e.g. threading.Event.set)
_METRIC_FACTORY_METHODS = frozenset({"counter", "gauge", "histogram"})

#: the closed label vocabulary: low-cardinality dimensions only
_BOUNDED_LABELS = frozenset({
    "op", "reason", "source", "channel", "cache", "buffer",
    "counter", "kind", "phase", "outcome", "pattern", "code",
    "method", "command", "event",
})

#: label names whose values grow with traffic, wherever they appear
_UNBOUNDED_LABELS = frozenset({
    "session", "session_id", "trace", "trace_id", "span", "span_id",
    "peer", "address", "hole", "wire_id", "query", "detail",
})


def _check_metric_labels(path: Path, tree: ast.Module
                         ) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _METRIC_WRITE_METHODS):
            continue
        receiver = node.func.value
        chained_off_factory = (
            isinstance(receiver, ast.Call)
            and isinstance(receiver.func, ast.Attribute)
            and receiver.func.attr in _METRIC_FACTORY_METHODS)
        for keyword in node.keywords:
            label = keyword.arg
            if label is None:
                continue  # **kwargs forwarding seam
            if label in _UNBOUNDED_LABELS:
                findings.append(Finding(
                    path, node.lineno, "E003",
                    "metric label %r has unbounded cardinality; "
                    "emit it as a trace event or flight-recorder "
                    "field instead" % label))
            elif chained_off_factory \
                    and label not in _BOUNDED_LABELS:
                findings.append(Finding(
                    path, node.lineno, "E003",
                    "metric label %r is outside the closed label "
                    "vocabulary %s" % (label,
                                       sorted(_BOUNDED_LABELS))))
    return findings


# ----------------------------------------------------------------------
# X100/X101: bare except and real sleeps
# ----------------------------------------------------------------------

def _check_hygiene(path: Path, tree: ast.Module) -> List[Finding]:
    findings: List[Finding] = []
    sleep_ok = path.parts[-2:] == _SLEEP_ALLOWED
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            findings.append(Finding(
                path, node.lineno, "X100",
                "bare 'except:' (catches KeyboardInterrupt; name the "
                "exception class)"))
        elif (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "sleep"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "time"
                and not sleep_ok):
            findings.append(Finding(
                path, node.lineno, "X101",
                "time.sleep outside runtime/resilience.py breaks the "
                "testing clock (inject a Clock instead)"))
    return findings


# ----------------------------------------------------------------------
# X102: sockets without explicit timeouts
# ----------------------------------------------------------------------

def _is_socket_attr(func: ast.expr, attr: str) -> bool:
    """``socket.<attr>`` (module-qualified attribute reference)."""
    return (isinstance(func, ast.Attribute)
            and func.attr == attr
            and isinstance(func.value, ast.Name)
            and func.value.id == "socket")


def _check_socket_timeouts(path: Path, tree: ast.Module
                           ) -> List[Finding]:
    sets_timeout = False
    creators: List[Tuple[int, str]] = []
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) \
                and func.attr == "settimeout":
            sets_timeout = True
        elif _is_socket_attr(func, "setdefaulttimeout"):
            sets_timeout = True
        elif _is_socket_attr(func, "create_connection"):
            has_timeout = (len(node.args) >= 2
                           or any(kw.arg == "timeout"
                                  for kw in node.keywords))
            if not has_timeout:
                findings.append(Finding(
                    path, node.lineno, "X102",
                    "socket.create_connection without an explicit "
                    "timeout= hangs forever on a dead peer"))
        elif _is_socket_attr(func, "socket"):
            creators.append((node.lineno, "socket.socket(...)"))
        elif isinstance(func, ast.Attribute) \
                and func.attr == "accept":
            creators.append((node.lineno, ".accept()"))
    if not sets_timeout:
        for lineno, what in creators:
            findings.append(Finding(
                path, lineno, "X102",
                "%s in a file that never calls .settimeout() -- "
                "blocking socket operations need an explicit bound"
                % what))
    return findings


# ----------------------------------------------------------------------
# X103: frame bytes outside server/wire.py
# ----------------------------------------------------------------------

def _check_raw_frame_io(path: Path, tree: ast.Module) -> List[Finding]:
    if path.parts[-2:] == _FRAME_IO_ALLOWED:
        return []
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        func = node.func
        if isinstance(func.value, ast.Name) \
                and func.value.id == "struct" and node.args \
                and isinstance(node.args[0], ast.Constant) \
                and node.args[0].value in _LENGTH_PREFIX_FORMATS:
            findings.append(Finding(
                path, node.lineno, "X103",
                "struct length-prefix framing outside server/wire.py "
                "(use frame_bytes / recv_frame_bytes)"))
        elif func.attr in _RAW_SOCKET_IO:
            findings.append(Finding(
                path, node.lineno, "X103",
                ".%s() outside server/wire.py (use send_frame / "
                "recv_frame / exchange)" % func.attr))
    return findings


# ----------------------------------------------------------------------
# X104: imported names never loaded
# ----------------------------------------------------------------------

def _annotation_names(tree: ast.Module) -> Set[str]:
    """Names read inside string annotations anywhere in ``tree``."""
    annotations: List[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                annotations.append(node.returns)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names: Set[str] = set()
    for annotation in annotations:
        for part in ast.walk(annotation):
            if not (isinstance(part, ast.Constant)
                    and isinstance(part.value, str)):
                continue
            try:
                parsed = ast.parse(part.value, mode="eval")
            except SyntaxError:
                continue
            names.update(name.id for name in ast.walk(parsed)
                         if isinstance(name, ast.Name))
    return names


def _exported_names(tree: ast.Module) -> Set[str]:
    """The string entries of a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets) \
                and isinstance(node.value, (ast.List, ast.Tuple)):
            return {elt.value for elt in node.value.elts
                    if isinstance(elt, ast.Constant)
                    and isinstance(elt.value, str)}
    return set()


def _check_unused_imports(path: Path, tree: ast.Module
                          ) -> List[Finding]:
    if path.name == "__init__.py":
        return []
    imported: List[Tuple[str, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.extend(
                ((alias.asname or alias.name.split(".")[0]), node.lineno)
                for alias in node.names)
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            imported.extend((alias.asname or alias.name, node.lineno)
                            for alias in node.names
                            if alias.name != "*")
    if not imported:
        return []
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name)
              and isinstance(node.ctx, ast.Load)}
    used = loaded | _exported_names(tree) | _annotation_names(tree)
    return [Finding(path, line, "X104",
                    "%r is imported but never used" % name)
            for name, line in imported if name not in used]


# ----------------------------------------------------------------------
# file drivers
# ----------------------------------------------------------------------

def load_event_names(repo_root: Path) -> Dict[str, Dict[str, tuple]]:
    """EVENT_NAMES parsed from the observability module's AST -- the
    linter must not import the package it lints."""
    source = (repo_root / "src" / "repro" / "runtime"
              / "observability.py").read_text()
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if isinstance(target, ast.Name) \
                        and target.id == "EVENT_NAMES" \
                        and node.value is not None:
                    return ast.literal_eval(node.value)
    raise SystemExit("EVENT_NAMES not found in runtime/observability.py")


def lint_file(path: Path, event_names: Dict[str, Dict[str, tuple]]
              ) -> List[Finding]:
    """All single-file rules over one source file."""
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    findings = (_check_lock_consistency(path, tree)
                + _check_event_names(path, tree, event_names)
                + _check_metric_labels(path, tree)
                + _check_hygiene(path, tree)
                + _check_socket_timeouts(path, tree)
                + _check_raw_frame_io(path, tree)
                + _check_unused_imports(path, tree))
    return apply_suppressions(findings, source.splitlines())


def lint_file_hygiene(path: Path) -> List[Finding]:
    """Hygiene-only rules (X100-X103) -- the subset applied to
    ``benchmarks/``, ``tools/`` and ``examples/``, which are not part
    of the traced runtime but still open sockets and sleep."""
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    findings = (_check_hygiene(path, tree)
                + _check_socket_timeouts(path, tree)
                + _check_raw_frame_io(path, tree))
    return apply_suppressions(findings, source.splitlines())
