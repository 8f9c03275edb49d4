"""The counter substrate: one base under every ``*Stats`` class.

The paper's Section 4 asks for "a separate generic buffer component"
instead of "having each wrapper handle its own buffering needs"; this
module is the same move for accounting.  A counter class is a
``@dataclass`` that *declares* its numeric fields (and derived
properties) on :class:`Counters`; ``snapshot`` / ``reset`` /
``as_dict`` / ``bump`` / ``+`` / ``-`` live here and nowhere else.

Two guarding disciplines, chosen per class:

*externally guarded* (the default)
    The owner holds a lock around every mutation (``BufferStats``
    under ``buffer.component``) or the instance is confined to one
    navigating thread (a query's ``NavCounters`` and ``CacheStats``);
    increments are plain attribute adds.

*self-locked* (``class X(Counters, shared=True)``)
    Charged from several threads with no common owner lock
    (``LXPStats``, ``ChannelStats``, ``ResilienceStats``,
    ``FragcacheStats``, ``ServerStats``, the daemon's per-op request
    counters): the instance carries the named lock
    ``runtime.counters`` as ``.lock``, writers batch their adds under
    ``with stats.lock:``, readers take ``snapshot()``.
    The lock is a leaf: nothing is acquired, called back or blocked
    on while it is held.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Any, ClassVar, Dict, Tuple, TypeVar

from .locks import make_lock

__all__ = ["Counters"]

_C = TypeVar("_C", bound="Counters")

#: the guard of externally guarded instances: entering it does nothing
_UNGUARDED: Any = contextlib.nullcontext()


@dataclasses.dataclass
class Counters:
    """Declared numeric fields plus the generic counter operations.

    Subclasses are dataclasses whose fields all default to a number;
    equality and ``repr`` are the dataclass ones (value-based -- the
    lock is not a field).  :attr:`derived` names the properties
    :meth:`as_dict` reports after the fields.
    """

    derived: ClassVar[Tuple[str, ...]] = ()
    shared: ClassVar[bool] = False

    def __init_subclass__(cls, shared: bool = False,
                          **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls.shared = shared

    def __post_init__(self) -> None:
        #: ``runtime.counters`` on self-locked classes; a no-op guard
        #: on externally guarded ones, so the generic readers below
        #: are written once
        if self.shared:
            self.lock = make_lock("runtime.counters")
        else:
            self.lock = _UNGUARDED

    def _read(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name)
                for f in dataclasses.fields(self)}

    def as_dict(self) -> Dict[str, Any]:
        """The declared fields, then the :attr:`derived` properties,
        read without synchronisation (safe under the owner's lock or
        once traffic has stopped; live self-locked instances are read
        through :meth:`snapshot`)."""
        report = self._read()
        for name in self.derived:
            report[name] = getattr(self, name)
        return report

    def snapshot(self) -> Dict[str, Any]:
        """A consistent copy of the declared fields -- taken under the
        lock on self-locked instances, so reporters never race live
        mutation."""
        with self.lock:
            return self._read()

    def reset(self) -> None:
        """Restore every field to its declared default."""
        with self.lock:
            for f in dataclasses.fields(self):
                setattr(self, f.name, f.default)

    def bump(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the field ``name`` (under the lock on
        self-locked instances).  For event-rate call sites; per-
        navigation paths add to the attribute directly under the lock
        they already hold."""
        with self.lock:
            setattr(self, name, getattr(self, name) + amount)

    def _combined(self: _C, other: _C, sign: int) -> _C:
        return type(self)(**{
            f.name: getattr(self, f.name)
            + sign * getattr(other, f.name)
            for f in dataclasses.fields(self)})

    def __add__(self: _C, other: _C) -> _C:
        return self._combined(other, 1)

    def __sub__(self: _C, other: _C) -> _C:
        return self._combined(other, -1)
