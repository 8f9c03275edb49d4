"""Named locks: one stable dotted identity per lock in the tree.

Every lock under ``src/repro`` is created through :func:`make_lock` /
:func:`make_rlock` with a dotted name such as ``fragcache.shard`` or
``buffer.component``.  The name is the unit both concurrency analyses
speak in:

* the static lock-order analyzer (``tools/lint``) reads the name
  literal at the creation site and builds the whole-repo acquisition
  graph over names, and
* the runtime sanitizer (:mod:`repro.testing.lockcheck`) tags the
  instrumented lock with the same name, so every dynamically observed
  acquisition edge can be checked for containment in the static graph.

On the default path the tag is *free*: ``make_lock`` returns a plain
``threading.Lock`` (CPython's ``_thread.lock`` cannot carry attributes,
and wrapping it would put a Python frame on the hot path), so the
factory is byte-identical to ``threading.Lock()``.  Only when the
sanitizer is armed -- ``REPRO_LOCK_SANITIZER=1`` in the environment at
import time, or an in-process :func:`repro.testing.lockcheck.arm` --
does the factory hand back an instrumented wrapper.  The default path
never imports ``repro.testing.lockcheck`` at all (a subprocess test
pins this).

The canonical name registry lives in docs/PROTOCOLS.md ("Concurrency
discipline"); a doc-sync test keeps the table and the creation sites
in exact agreement.
"""

from __future__ import annotations

import os
import re
import threading
from typing import Any, Callable, Optional

__all__ = [
    "make_lock",
    "make_rlock",
    "set_lock_factory",
    "LOCK_NAME_RE",
]

#: Lock names are dotted lowercase identifiers: subsystem.role[.detail]
LOCK_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")

# Factory hook installed by repro.testing.lockcheck.arm(); when None
# the default (plain threading) path is taken.  The hook receives
# (name, reentrant) and returns a lock-like object.
_factory: Optional[Callable[[str, bool], Any]] = None


def _check_name(name: str) -> str:
    if not LOCK_NAME_RE.match(name):
        raise ValueError(
            "lock name %r is not a dotted lowercase identifier "
            "(expected e.g. 'fragcache.shard')" % (name,))
    return name


def make_lock(name: str) -> Any:
    """Return a mutex tagged with the dotted identity *name*.

    Default path: a plain ``threading.Lock`` -- the name exists only
    statically, at this call site.
    """
    _check_name(name)
    if _factory is not None:
        return _factory(name, False)
    return threading.Lock()


def make_rlock(name: str) -> Any:
    """Like :func:`make_lock` but re-entrant (``threading.RLock``)."""
    _check_name(name)
    if _factory is not None:
        return _factory(name, True)
    return threading.RLock()


def set_lock_factory(
        factory: Optional[Callable[[str, bool], Any]]) -> None:
    """Install (or clear, with ``None``) the instrumented-lock factory.

    Only :mod:`repro.testing.lockcheck` calls this; it is the single
    seam through which the sanitizer takes over lock creation.
    """
    global _factory
    _factory = factory


# Arm at import when the environment asks for it.  The lazy import
# keeps repro.testing.lockcheck entirely off the default path.
if os.environ.get("REPRO_LOCK_SANITIZER", "") == "1":  # pragma: no cover
    from ..testing import lockcheck as _lockcheck

    _lockcheck.arm()
