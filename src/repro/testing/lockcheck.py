"""Runtime lock sanitizer: observed lock-order graph + blocking checks.

Armed via ``REPRO_LOCK_SANITIZER=1`` (read by :mod:`repro.runtime.locks`
at import) or an in-process :func:`arm`, this module swaps the named
lock factory for instrumented locks.  Each acquisition records, per
thread, which named locks were already held; every (held -> acquired)
pair becomes an edge in a process-wide *observed order graph*.  Two
violations raise immediately:

* **cycle formation** (:class:`LockOrderError`): the new edge closes a
  cycle in the name graph -- a deadlock *potential*, reported even when
  this particular interleaving did not deadlock.  The check runs
  *before* blocking on the lock, so a true ABBA interleaving raises
  instead of hanging.  Edges between two :data:`STACKED_LOCKS` are
  recorded but close no cycle: those components are ordered by the
  mediator tree they stack in, not by name.
* **blocking call under a lock** (:class:`BlockingCallUnderLock`):
  ``time.sleep``, ``queue.Queue.get`` and socket
  send/recv/accept/connect are patched to raise when called while a
  named lock outside :data:`BLOCKING_HOLD_ALLOWED` is held -- the
  runtime twin of the static L011 rule.

The observed graph is the dynamic half of the agreement discipline: the
suite in ``tests/test_lock_order.py`` asserts every observed edge is
contained in the static graph predicted by ``tools/lint`` -- a missing
static edge is an analyzer soundness failure.  Set
``REPRO_LOCK_SANITIZER_DUMP=<path>`` to append observed edges as JSONL
at interpreter exit (CI feeds this to ``python -m tools.lint
--assert-contains``).

This module is never imported on the default path; a subprocess test
proves ``repro.testing.lockcheck`` stays out of ``sys.modules``.
"""

from __future__ import annotations

import atexit
import json
import os
import queue
import socket
import threading
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..runtime import locks as _locks

__all__ = [
    "LockOrderError",
    "BlockingCallUnderLock",
    "BLOCKING_HOLD_ALLOWED",
    "STACKED_LOCKS",
    "arm",
    "disarm",
    "armed",
    "reset",
    "observed_edges",
    "held_names",
]


class LockOrderError(RuntimeError):
    """A lock acquisition closed a cycle in the observed order graph."""


class BlockingCallUnderLock(RuntimeError):
    """A blocking primitive ran while a non-allowlisted lock was held."""


#: Lock names that are *allowed* to be held across blocking calls.
#: This mirrors, name for name, the justified ``lint: allow=L011``
#: suppressions in the source tree (the static analyzer's table);
#: the agreement suite asserts the two stay in sync.
#:
#: * ``buffer.component`` -- demand fills run under the open-tree lock
#:   by design: a navigation and the fills it makes are one critical
#:   section, so sessions sharing a buffer never see a half splice.
#: * ``client.channel`` -- the session channel serializes
#:   request/reply round trips under its mutex; every socket op is
#:   deadline-bounded, and over an in-process pipe the session answers
#:   inside it, down to the source I/O the fill needs.
BLOCKING_HOLD_ALLOWED = frozenset({
    "buffer.component",
    "client.channel",
})

#: Locks of components that stack in a mediator tree -- a client's
#: buffer over its session channel over an exported query over source
#: buffers.  Each instance calls only down the stack, so two of them
#: are ordered by the tree, not by name (the reason same-name nesting
#: is no edge either).  Mirrors ``tools.lint.lockgraph.STACKED_LOCKS``.
STACKED_LOCKS = frozenset({"buffer.component", "client.channel"})

_armed = False
_install_lock = threading.Lock()

# Observed order graph over lock *names*.  _graph_lock is a plain
# (uninstrumented) mutex: the sanitizer must not observe itself.
_graph_lock = threading.Lock()
_edges: Dict[str, Set[str]] = {}
_evidence: Dict[Tuple[str, str], str] = {}

_tls = threading.local()

_saved: Dict[str, Any] = {}


def _held_stack() -> List["_SanitizedLock"]:
    stack = getattr(_tls, "held", None)
    if stack is None:
        stack = []
        _tls.held = stack
    return stack


def held_names() -> Tuple[str, ...]:
    """Names of the instrumented locks the current thread holds."""
    return tuple(lock.name for lock in _held_stack())


def _call_site() -> str:
    # Nearest frame outside this module: the acquisition site.
    for frame in reversed(traceback.extract_stack(limit=8)[:-2]):
        if not frame.filename.endswith("lockcheck.py"):
            return "%s:%s in %s" % (
                os.path.basename(frame.filename), frame.lineno,
                frame.name)
    return "<unknown>"


def _find_path(src: str, dst: str) -> Optional[List[str]]:
    """DFS for a path src -> dst in the observed graph (lock held),
    over edges that carry a name order."""
    stack = [(src, [src])]
    seen = {src}
    while stack:
        node, path = stack.pop()
        for succ in _edges.get(node, ()):
            if node in STACKED_LOCKS and succ in STACKED_LOCKS:
                continue
            if succ == dst:
                return path + [succ]
            if succ not in seen:
                seen.add(succ)
                stack.append((succ, path + [succ]))
    return None


def _record_acquisition(name: str) -> None:
    """Add (held -> name) edges; raise if one closes a cycle."""
    held = held_names()
    if not held:
        return
    site = _call_site()
    with _graph_lock:
        for prior in held:
            if prior == name:
                # Distinct instances sharing a name (stacked buffer
                # components in a mediator tree) have no static order;
                # instance-level self-deadlock on a plain lock is
                # caught by the owner check in acquire().
                continue
            back = _find_path(name, prior)
            if back is not None:
                first = _evidence.get((back[0], back[1]),
                                      "<unrecorded>")
                raise LockOrderError(
                    "acquiring %r while holding %r closes the cycle "
                    "%s -> %s (at %s; reverse edge first seen at %s)"
                    % (name, prior, " -> ".join(back), back[0], site,
                       first))
            succs = _edges.setdefault(prior, set())
            if name not in succs:
                succs.add(name)
                _evidence[(prior, name)] = site


class _SanitizedLock:
    """Instrumented stand-in for a named Lock/RLock.

    Slower than the plain locks (a Python frame per acquire) -- which
    is exactly why the default factory never hands these out.
    """

    __slots__ = ("name", "reentrant", "_inner", "_owner", "_depth")

    def __init__(self, name: str, reentrant: bool) -> None:
        self.name = name
        self.reentrant = reentrant
        self._inner = threading.Lock()
        self._owner: Optional[int] = None
        self._depth = 0

    def acquire(self, blocking: bool = True,
                timeout: float = -1) -> bool:
        me = threading.get_ident()
        if self._owner == me:
            if not self.reentrant:
                raise LockOrderError(
                    "non-reentrant lock %r re-acquired by its owning "
                    "thread (at %s): guaranteed self-deadlock"
                    % (self.name, _call_site()))
            self._depth += 1
            return True
        if _armed:
            # Order check happens *before* blocking: a true ABBA
            # interleaving raises here rather than deadlocking.
            _record_acquisition(self.name)
        if timeout == -1:
            ok = self._inner.acquire(blocking)
        else:
            ok = self._inner.acquire(blocking, timeout)
        if ok:
            self._owner = me
            self._depth = 1
            _held_stack().append(self)
        return ok

    def release(self) -> None:
        me = threading.get_ident()
        if self._owner != me:
            raise RuntimeError(
                "lock %r released by thread %s which does not hold it"
                % (self.name, me))
        if self._depth > 1:
            self._depth -= 1
            return
        self._depth = 0
        self._owner = None
        stack = _held_stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is self:
                del stack[index]
                break
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> "_SanitizedLock":
        self.acquire()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.release()

    def __repr__(self) -> str:
        return "<_SanitizedLock %s reentrant=%s held_by=%s>" % (
            self.name, self.reentrant, self._owner)


def _make_instrumented(name: str, reentrant: bool) -> _SanitizedLock:
    return _SanitizedLock(name, reentrant)


def _check_blocking(op: str) -> None:
    if not _armed:
        return
    held = held_names()
    offending = [n for n in held if n not in BLOCKING_HOLD_ALLOWED]
    if offending:
        raise BlockingCallUnderLock(
            "blocking call %s while holding lock(s) %s (at %s); "
            "either release first or add a justified allowance"
            % (op, ", ".join(sorted(offending)), _call_site()))


def _wrap(op: str, original: Callable[..., Any]) -> Callable[..., Any]:
    def guarded(*args: Any, **kwargs: Any) -> Any:
        _check_blocking(op)
        return original(*args, **kwargs)

    guarded.__name__ = getattr(original, "__name__", op)
    return guarded


def _patch_blocking() -> None:
    _saved["time.sleep"] = time.sleep
    time.sleep = _wrap("time.sleep", time.sleep)  # type: ignore[assignment]
    _saved["Queue.get"] = queue.Queue.get
    queue.Queue.get = _wrap(  # type: ignore[method-assign]
        "Queue.get", queue.Queue.get)
    for method in ("accept", "connect", "recv", "recv_into", "send",
                   "sendall"):
        key = "socket.%s" % method
        _saved[key] = getattr(socket.socket, method)
        setattr(socket.socket, method, _wrap(key, _saved[key]))


def _unpatch_blocking() -> None:
    if not _saved:
        return
    time.sleep = _saved.pop("time.sleep")  # type: ignore[assignment]
    queue.Queue.get = _saved.pop(  # type: ignore[method-assign]
        "Queue.get")
    for method in ("accept", "connect", "recv", "recv_into", "send",
                   "sendall"):
        setattr(socket.socket, method, _saved.pop("socket.%s" % method))


def _dump_at_exit(path: str) -> None:
    try:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(
                {"edges": sorted(
                    [a, b] for a, b in observed_edges())}) + "\n")
    except OSError:  # pragma: no cover - dump is best-effort
        pass


def arm() -> None:
    """Install instrumented locks + blocking-call guards (idempotent).

    Locks created *before* arming stay plain; arm early (the env-var
    path arms at ``repro.runtime.locks`` import, i.e. before any lock
    in the tree exists).
    """
    global _armed
    with _install_lock:
        if _armed:
            return
        _patch_blocking()
        _locks.set_lock_factory(_make_instrumented)
        _armed = True
        dump = os.environ.get("REPRO_LOCK_SANITIZER_DUMP")
        if dump:
            atexit.register(_dump_at_exit, dump)


def disarm() -> None:
    """Restore the plain factory and blocking primitives (idempotent).

    Instrumented locks already handed out keep working but stop
    recording; the observed graph survives until :func:`reset`.
    """
    global _armed
    with _install_lock:
        if not _armed:
            return
        _locks.set_lock_factory(None)
        _unpatch_blocking()
        _armed = False


def armed() -> bool:
    return _armed


def reset() -> None:
    """Clear the observed order graph (keep armed state)."""
    with _graph_lock:
        _edges.clear()
        _evidence.clear()


def observed_edges() -> Set[Tuple[str, str]]:
    """Snapshot of observed (held, acquired) name pairs."""
    with _graph_lock:
        return {(a, b) for a, succs in _edges.items() for b in succs}
