"""Scripted failure schedules, flaky seam proxies, and a fake clock.

The resilience layer (:mod:`repro.runtime.resilience`) is driven
entirely by two inputs: *when operations fail* and *what time it is*.
Both are injectable, so every retry/breaker/degradation behaviour can
be reproduced exactly, with zero real sleeps:

* :class:`FailureSchedule` scripts which calls fail and with what
  exception ("fail the first two fills, then succeed");
* :class:`FlakyLXPServer` / :class:`FlakyChannel` inject those
  failures at the wrapper seam and the remote-channel seam;
* :class:`FakeClock` is a manual-advance time source -- ``sleep_ms``
  just moves the hands, so backoff schedules and breaker reset
  windows run instantaneously in tests.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Union

from ..errors import TransientSourceError
from ..runtime.resilience import Clock
from ..runtime.locks import make_lock

__all__ = [
    "FakeClock", "FailureSchedule",
    "FlakyLXPServer", "FlakyChannel",
    "DeadLXPServer", "VersionedLXPServer",
]


class FakeClock(Clock):
    """A manually advanced clock; sleeping advances it instantly.

    ``sleeps`` records every requested sleep, so tests can assert the
    exact backoff schedule a retry policy produced.

    Concurrent sessions share one fake clock in the stress tests, so
    hand movement is lock-guarded.
    """

    def __init__(self, start_ms: float = 0.0):
        self._now = start_ms
        self.sleeps: List[float] = []
        self._lock = make_lock("testing.clock")

    def now_ms(self) -> float:
        with self._lock:
            return self._now

    def sleep_ms(self, ms: float) -> None:
        with self._lock:
            self.sleeps.append(ms)
            self._now += ms

    def advance(self, ms: float) -> None:
        """Move time forward without recording a sleep (models the
        world moving on between calls, e.g. a breaker reset window
        elapsing)."""
        with self._lock:
            self._now += ms


#: a schedule step: False/None = succeed, True = fail with the default
#: error, or an exception instance/factory to raise as-is
Step = Union[bool, None, BaseException, Callable[[], BaseException]]


class FailureSchedule:
    """A deterministic script of which calls fail.

    The schedule is consumed one step per intercepted call; after the
    script is exhausted every further call succeeds (or fails, with
    ``exhausted="fail"`` -- a permanently dead peer).

    Convenience constructors::

        FailureSchedule.first(2)       # fail call 1 and 2, then heal
        FailureSchedule.always()       # permanently dead
        FailureSchedule.never()        # healthy control
        FailureSchedule([True, False, True])   # fail 1st and 3rd
    """

    def __init__(self, steps=(),
                 error: Callable[[], BaseException] = None,
                 exhausted: str = "succeed"):
        if exhausted not in ("succeed", "fail"):
            raise ValueError("exhausted must be 'succeed' or 'fail'")
        self.steps = list(steps)
        self.error = (error if error is not None
                      else (lambda: TransientSourceError(
                          "injected transient fault")))
        self.exhausted = exhausted
        #: how many calls the schedule has intercepted so far
        self.calls = 0
        #: how many failures it has injected
        self.failures = 0
        #: one schedule may be consumed by several concurrent
        #: sessions; step consumption must be atomic so exactly the
        #: scripted number of failures is injected overall
        self._lock = make_lock("testing.schedule")

    @classmethod
    def first(cls, n: int, error=None) -> "FailureSchedule":
        """Fail the first ``n`` calls, then succeed forever."""
        return cls([True] * n, error=error)

    @classmethod
    def always(cls, error=None) -> "FailureSchedule":
        """Every call fails: a permanently dead peer."""
        return cls([], error=error, exhausted="fail")

    @classmethod
    def never(cls) -> "FailureSchedule":
        """Every call succeeds (healthy control)."""
        return cls([])

    def next_failure(self) -> Optional[BaseException]:
        """The exception to raise for this call, or None to succeed."""
        with self._lock:
            index = self.calls
            self.calls += 1
            if index < len(self.steps):
                step = self.steps[index]
            else:
                step = self.exhausted == "fail"
            if step is False or step is None:
                return None
            self.failures += 1
        if step is True:
            return self.error()
        if isinstance(step, BaseException):
            return step
        return step()


class FlakyLXPServer:
    """An LXP server whose ``fill`` fails per a scripted schedule.

    Wraps any real server; ``get_root`` always succeeds (it mints a
    hole without touching the source in every shipped wrapper), while
    each ``fill`` consumes one schedule step.  All other attributes
    (``stats``, ``chunk_size``, ...) proxy through.
    """

    def __init__(self, server, schedule: FailureSchedule,
                 name: str = "flaky"):
        self.server = server
        self.schedule = schedule
        self.name = name

    def get_root(self):
        return self.server.get_root()

    def fill(self, hole_id):
        err = self.schedule.next_failure()
        if err is not None:
            raise err
        return self.server.fill(hole_id)

    def fill_batch(self, hole_ids, speculate: int = 0):
        """One schedule step per *batch*: the whole round trip either
        arrives or fails, matching the channel's framing."""
        err = self.schedule.next_failure()
        if err is not None:
            raise err
        return self.server.fill_batch(hole_ids, speculate)

    def __getattr__(self, attr):
        return getattr(self.server, attr)


class FlakyChannel(FlakyLXPServer):
    """A remote fragment channel that drops round trips on schedule.

    Identical mechanics to :class:`FlakyLXPServer` -- the remote
    channel *is* an LXP server -- but named for the seam it models:
    wrap a :class:`~repro.server.client.SocketChannel` in one of
    these, then wrap the result in a ``ResilientLXPServer`` (or let
    ``connect_remote`` do it from the engine config).
    """


def DeadLXPServer(server, name: str = "dead") -> FlakyLXPServer:
    """A permanently failing wrapper (every fill raises): the
    no-hang-guarantee fixture."""
    return FlakyLXPServer(server, FailureSchedule.always(), name=name)


class VersionedLXPServer:
    """A source whose content *churns*: a sequence of snapshot trees.

    Each snapshot is served by its own
    :class:`~repro.buffer.lxp.TreeLXPServer`; ``advance()`` moves to
    the next one and bumps :meth:`snapshot_version` -- the capability
    the fragment cache (:mod:`repro.runtime.fragcache`) negotiates to
    tag and invalidate cached fragments.

    ``get_root``/``fill``/``fill_batch`` each atomically pick the
    *current* snapshot's server, so concurrent sessions straddling an
    ``advance()`` see a clean epoch boundary (every individual fill is
    answered entirely from one snapshot).  One shared
    :class:`~repro.buffer.lxp.LXPStats` spans all snapshots, so tests
    can count total source traffic across the churn.
    """

    def __init__(self, snapshots, chunk_size=None):
        from ..buffer.lxp import LXPStats, TreeLXPServer
        snapshots = list(snapshots)
        if not snapshots:
            raise ValueError("need at least one snapshot tree")
        self.stats = LXPStats()
        self._servers = []
        for tree in snapshots:
            server = TreeLXPServer(tree, chunk_size=chunk_size)
            server.stats = self.stats
            self._servers.append(server)
        self._version = 0
        self._lock = make_lock("testing.versioned")

    def snapshot_version(self) -> int:
        """The current snapshot epoch (0-based index)."""
        with self._lock:
            return self._version

    def advance(self) -> int:
        """Move to the next snapshot; returns the new version.

        Raises :class:`IndexError` past the last snapshot.
        """
        with self._lock:
            if self._version + 1 >= len(self._servers):
                raise IndexError("no snapshot beyond version %d"
                                 % self._version)
            self._version += 1
            return self._version

    def _current(self):
        with self._lock:
            return self._servers[self._version]

    def get_root(self):
        return self._current().get_root()

    def fill(self, hole_id):
        return self._current().fill(hole_id)

    def fill_batch(self, hole_ids, speculate: int = 0):
        return self._current().fill_batch(hole_ids, speculate)
