"""Fault tolerance at the I/O seams: retries, breakers, degradation.

The paper's mediator navigates *live, autonomous* sources on demand
(Sec. 2, Fig. 2) -- which means any ``fill`` against a wrapper and any
channel round trip may fail at any time.  Distributed XML-query
systems treat source unavailability and partial results as protocol
states, not exceptions; this module gives the tower the same posture:

* :class:`RetryPolicy` -- a frozen value describing bounded retries
  with exponential backoff, *deterministic* jitter (seeded from the
  operation key, so runs reproduce) and an optional cumulative
  per-operation deadline.
* :class:`CircuitBreaker` -- the classic closed / open / half-open
  automaton, one per source, so a dead source fails fast instead of
  soaking every query in its full retry schedule.
* :class:`ResilientLXPServer` -- the seam wrapper.  Both I/O seams in
  the architecture speak LXP (the generic buffer's ``fill`` into a
  source wrapper, and the remote client's session channel), so one
  proxy class covers both.  In ``"degrade"`` mode an exhausted or
  broken source yields a marked ``<mix:error source=...>`` placeholder
  element in the virtual answer instead of aborting the query.

Time is abstracted behind :class:`Clock` so tests drive the whole
machinery -- backoff sleeps, breaker reset windows, deadlines -- from
a fake clock without ever sleeping for real (see
:mod:`repro.testing.faults`).
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..buffer.holes import Fragments
from ..errors import (
    FAILURE_TYPES,
    TransientSourceError,
    is_transient,
)
from .config import ConfigError
from .counters import Counters
from .locks import make_rlock

__all__ = [
    "Clock", "MonotonicClock", "SYSTEM_CLOCK",
    "RetryPolicy", "BreakerOpenError", "CircuitBreaker",
    "ResilienceStats", "ResilientCaller",
    "ERROR_LABEL", "error_placeholder", "is_error_label",
    "ResilientLXPServer", "resilient_server",
]


# ----------------------------------------------------------------------
# Time
# ----------------------------------------------------------------------

class Clock:
    """The time source the resilience layer reads and sleeps on."""

    def now_ms(self) -> float:
        raise NotImplementedError

    def sleep_ms(self, ms: float) -> None:
        raise NotImplementedError


class MonotonicClock(Clock):
    """Real time: ``time.monotonic`` + ``time.sleep``."""

    def now_ms(self) -> float:
        return time.monotonic() * 1000.0

    def sleep_ms(self, ms: float) -> None:
        if ms > 0:
            time.sleep(ms / 1000.0)


#: the default wall-clock; tests substitute a FakeClock
SYSTEM_CLOCK = MonotonicClock()


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RetryPolicy:
    """How many times to try one I/O operation, and how to wait.

    ``max_attempts`` is the *total* try count (1 = no retries).  The
    delay before retry ``n`` (1-based) is::

        min(base_delay_ms * backoff**(n-1), max_delay_ms) * jitter_factor

    where the jitter factor is drawn deterministically from the
    operation key and the attempt number (+-``jitter`` relative), so a
    rerun of the same schedule produces identical waits -- randomized
    enough to de-synchronize a fleet, deterministic enough to test.

    ``deadline_ms`` bounds the cumulative elapsed time (tries plus
    waits) one operation may consume; when the next backoff would
    cross it, the policy gives up immediately instead of sleeping.
    """

    max_attempts: int = 3
    base_delay_ms: float = 10.0
    backoff: float = 2.0
    max_delay_ms: float = 1000.0
    deadline_ms: Optional[float] = None
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.base_delay_ms < 0 or self.max_delay_ms < 0:
            raise ConfigError("delays must be >= 0")
        if self.backoff < 1.0:
            raise ConfigError("backoff must be >= 1.0")
        if not (0.0 <= self.jitter <= 1.0):
            raise ConfigError("jitter must be in [0, 1]")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ConfigError("deadline_ms must be positive or None")

    def delay_ms(self, attempt: int, key: object = None) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        base = min(self.base_delay_ms * self.backoff ** (attempt - 1),
                   self.max_delay_ms)
        if self.jitter == 0.0 or base == 0.0:
            return base
        # crc32 (not hash()) so the jitter survives PYTHONHASHSEED.
        seed = zlib.crc32(repr((key, attempt)).encode("utf-8"))
        unit = (seed % 10000) / 10000.0          # [0, 1)
        return base * (1.0 + self.jitter * (2.0 * unit - 1.0))


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------

class BreakerOpenError(TransientSourceError):
    """Raised (or degraded) when a call is short-circuited by an open
    breaker.  Transient by definition: the breaker will half-open."""


class CircuitBreaker:
    """Per-source closed / open / half-open failure automaton.

    * **closed** -- calls pass; ``failure_threshold`` *consecutive*
      failures trip it open.
    * **open** -- calls are refused instantly (no source traffic, no
      retry schedule) until ``reset_timeout_ms`` has elapsed.
    * **half-open** -- exactly one probe call passes; its success
      closes the breaker, its failure re-opens it for another window.

    The automaton is shared by every thread navigating the source
    (concurrent client sessions), so all state transitions happen
    under one re-entrant lock -- in
    particular the half-open probe slot is claimed atomically.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, failure_threshold: int = 5,
                 reset_timeout_ms: float = 30000.0,
                 clock: Clock = SYSTEM_CLOCK,
                 name: str = "") -> None:
        if failure_threshold < 1:
            raise ConfigError("failure_threshold must be >= 1")
        if reset_timeout_ms < 0:
            raise ConfigError("reset_timeout_ms must be >= 0")
        self.failure_threshold = failure_threshold
        self.reset_timeout_ms = reset_timeout_ms
        self.clock = clock
        self.name = name
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None
        self._probing = False
        self._lock = make_rlock("resilience.breaker")
        #: lifetime transition counters (reported through stats)
        self.opens = 0
        self.short_circuits = 0

    @property
    def state(self) -> str:
        """The current state, applying the open -> half-open timeout."""
        with self._lock:
            if self._state == self.OPEN \
                    and self._opened_at is not None \
                    and self.clock.now_ms() - self._opened_at \
                    >= self.reset_timeout_ms:
                self._state = self.HALF_OPEN
                self._probing = False
            return self._state

    def allow(self) -> bool:
        """Whether a call may proceed right now (claims the half-open
        probe slot when in half-open state)."""
        with self._lock:
            state = self.state
            if state == self.CLOSED:
                return True
            if state == self.HALF_OPEN and not self._probing:
                self._probing = True
                return True
            self.short_circuits += 1
            return False

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._probing = False
            self._state = self.CLOSED
            self._opened_at = None

    def record_failure(self) -> None:
        with self._lock:
            if self.state == self.HALF_OPEN:
                self._trip()
                return
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.failure_threshold:
                self._trip()

    def _trip(self) -> None:
        with self._lock:
            self._state = self.OPEN
            self._opened_at = self.clock.now_ms()
            self._consecutive_failures = 0
            self._probing = False
            self.opens += 1

    def __repr__(self) -> str:
        return "CircuitBreaker(%r, %s)" % (self.name, self.state)


# ----------------------------------------------------------------------
# Stats
# ----------------------------------------------------------------------

@dataclass
class ResilienceStats(Counters, shared=True):
    """Retry/breaker/degradation accounting for one wrapped peer.

    Self-locked: a single peer may be exercised by many threads at
    once (concurrent sessions over a shared source).
    """

    calls: int = 0
    failures: int = 0              # individual failed tries
    retries: int = 0               # sleeps taken before re-trying
    giveups: int = 0               # operations that exhausted retries
    degraded: int = 0              # fills answered by an error hole
    breaker_opens: int = 0
    breaker_short_circuits: int = 0
    retry_wait_ms: float = 0.0     # cumulative backoff waited


# ----------------------------------------------------------------------
# The retry/breaker engine
# ----------------------------------------------------------------------

class ResilientCaller:
    """Retry + breaker + deadline around calls to one named peer.

    The engine under :class:`ResilientLXPServer`: classify each
    failure via the error taxonomy, retry transient ones per the
    policy, feed the breaker, and keep the counters.  Raises the
    *last* underlying error when it gives up (callers decide whether
    to degrade).
    """

    def __init__(self, name: str,
                 policy: Optional[RetryPolicy] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 clock: Clock = SYSTEM_CLOCK,
                 tracer: Optional[Any] = None) -> None:
        self.name = name
        self.policy = policy if policy is not None else RetryPolicy()
        self.breaker = breaker
        self.clock = clock
        self.tracer = tracer
        self.stats = ResilienceStats()

    def _trace(self, event: str, **data: object) -> None:
        if self.tracer is not None and self.tracer.active:
            # lint: allow=E002 -- callers pass contract names verbatim
            self.tracer.emit("resilience", event, source=self.name,
                             **data)

    def call(self, fn: Callable, *args: object,
             key: object = None) -> Any:
        """Run ``fn(*args)`` under the policy; return its result or
        raise the final failure."""
        stats = self.stats
        stats.bump("calls")
        policy = self.policy
        started = self.clock.now_ms()
        attempt = 0
        while True:
            attempt += 1
            if self.breaker is not None and not self.breaker.allow():
                stats.bump("breaker_short_circuits")
                self._trace("short_circuit",
                            state=self.breaker.state)
                raise BreakerOpenError(
                    "circuit for source %r is %s"
                    % (self.name, self.breaker.state))
            try:
                result = fn(*args)
            except FAILURE_TYPES as err:
                transient = is_transient(err)
                opened = 0
                if self.breaker is not None:
                    opens_before = self.breaker.opens
                    self.breaker.record_failure()
                    opened = self.breaker.opens - opens_before
                with stats.lock:
                    stats.failures += 1
                    stats.breaker_opens += opened
                if opened:
                    self._trace("breaker_open")
                self._trace("failure", attempt=attempt,
                            transient=transient,
                            error=type(err).__name__)
                if not transient or attempt >= policy.max_attempts:
                    stats.bump("giveups")
                    raise
                delay = policy.delay_ms(attempt, key=(self.name, key))
                if policy.deadline_ms is not None:
                    elapsed = self.clock.now_ms() - started
                    if elapsed + delay > policy.deadline_ms:
                        stats.bump("giveups")
                        self._trace("deadline_exceeded",
                                    elapsed_ms=elapsed)
                        raise
                with stats.lock:
                    stats.retries += 1
                    stats.retry_wait_ms += delay
                self._trace("retry", attempt=attempt, delay_ms=delay)
                self.clock.sleep_ms(delay)
            else:
                if self.breaker is not None:
                    self.breaker.record_success()
                return result


# ----------------------------------------------------------------------
# Degradation: error placeholders in the virtual answer
# ----------------------------------------------------------------------

#: label of the placeholder element a degraded source leaves behind
ERROR_LABEL = "mix:error"

#: hole-id tag routing a degraded get_root to a synthetic fill
_ERROR_HOLE = "__mix:error__"


def is_error_label(label: str) -> bool:
    """Whether an element label marks a degradation placeholder."""
    return label == ERROR_LABEL


def error_placeholder(source: str, reason: str) -> Fragments:
    """The marked partial-answer reply ``mix:error[source[...],
    reason[...]]``.

    Shipped as an ordinary closed reply, it flows through the buffer,
    the lazy operators and the client API like any element;
    ``XMLElement.is_error`` and :func:`is_error_label` recognize it.
    """
    return Fragments(
        (ERROR_LABEL, "source", source, "reason",
         reason or "unavailable"), (5, 2, 1, 2, 1))


# ----------------------------------------------------------------------
# Seam wrappers
# ----------------------------------------------------------------------

class ResilientLXPServer:
    """Retry/breaker/degrade proxy around any LXP server.

    Both I/O seams of the architecture speak LXP -- the generic
    buffer's ``fill`` into a source wrapper, and the remote client's
    ``SocketChannel`` -- so this one proxy hardens both.  On
    ``on_failure="degrade"``, an exhausted or short-circuited
    operation answers with :func:`error_placeholder` fragments instead
    of raising, which the buffer splices like any reply: the virtual
    answer carries a marked partial result and sibling sources are
    untouched.
    """

    def __init__(self, server: Any, name: str = "source",
                 policy: Optional[RetryPolicy] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 clock: Clock = SYSTEM_CLOCK,
                 on_failure: str = "fail",
                 tracer: Optional[Any] = None) -> None:
        if on_failure not in ("fail", "degrade"):
            raise ConfigError(
                "on_failure must be 'fail' or 'degrade', not %r"
                % (on_failure,))
        self.server = server
        self.name = name
        self.on_failure = on_failure
        self.caller = ResilientCaller(name, policy=policy,
                                      breaker=breaker, clock=clock,
                                      tracer=tracer)
        self.resilience = self.caller.stats

    @property
    def breaker(self) -> Optional[CircuitBreaker]:
        return self.caller.breaker

    def _degrade(self, err: BaseException) -> Fragments:
        self.resilience.bump("degraded")
        self.caller._trace("degraded", error=type(err).__name__)
        return error_placeholder(self.name, str(err))

    def get_root(self) -> Any:
        try:
            return self.caller.call(self.server.get_root,
                                    key="get_root")
        except FAILURE_TYPES as err:
            if self.on_failure != "degrade":
                raise
            # Degrade via a synthetic hole: get_root must return a
            # hole, so the placeholder ships on its first fill.
            self.resilience.bump("degraded")
            return Fragments.hole((_ERROR_HOLE, str(err)))

    def fill(self, hole_id: Any) -> Any:
        if isinstance(hole_id, tuple) and hole_id \
                and hole_id[0] == _ERROR_HOLE:
            return error_placeholder(self.name, hole_id[1])
        try:
            return self.caller.call(self.server.fill, hole_id,
                                    key=hole_id)
        except FAILURE_TYPES as err:
            if self.on_failure != "degrade":
                raise
            return self._degrade(err)

    def fill_batch(self, hole_ids: Any, speculate: int = 0) -> Any:
        """Batched fill through the same retry/breaker/degrade seam.

        One batch is one retriable operation (the whole round trip is
        retried, matching the channel's all-or-nothing framing).  On
        exhausted failure in degrade mode every *requested* hole gets
        its own placeholder reply -- speculative fills are simply
        absent, exactly as if the server declined to speculate.
        """
        hole_ids = list(hole_ids)
        synthetic = [hid for hid in hole_ids
                     if isinstance(hid, tuple) and hid
                     and hid[0] == _ERROR_HOLE]
        if synthetic:
            # Error holes never reach the wrapped server; answer them
            # (and any healthy ids) via per-hole fills instead.
            return [(hid, self.fill(hid)) for hid in hole_ids]
        try:
            return self.caller.call(self.server.fill_batch, hole_ids,
                                    speculate,
                                    key=("fill_batch",
                                         tuple(hole_ids)))
        except FAILURE_TYPES as err:
            if self.on_failure != "degrade":
                raise
            self.resilience.bump("degraded", len(hole_ids))
            self.caller._trace("degraded", error=type(err).__name__,
                               batch=len(hole_ids))
            return [(hid, error_placeholder(self.name, str(err)))
                    for hid in hole_ids]

    def __getattr__(self, attr: str) -> Any:
        # Transparent proxy for everything else (stats, chunk_size...)
        return getattr(self.server, attr)


# ----------------------------------------------------------------------
# The config-driven factory
# ----------------------------------------------------------------------

def resilient_server(server: Any, config: Any,
                     name: str = "source",
                     clock: Optional[Clock] = None,
                     tracer: Optional[Any] = None) -> Any:
    """Wrap an LXP server per ``config``; pass-through when inactive.

    When ``config.resilience_active`` is false the server is returned
    *unchanged* -- the healthy default path pays nothing.  The one
    production caller is :func:`~repro.wrappers.base.source_stack`,
    which registers the wrapped server's :class:`ResilienceStats`
    with its context so they surface through ``QueryResult.stats()``.
    """
    if not config.resilience_active:
        return server
    clock = clock if clock is not None else SYSTEM_CLOCK
    breaker = CircuitBreaker(
        failure_threshold=config.breaker_threshold,
        reset_timeout_ms=config.breaker_reset_ms,
        clock=clock, name=name)
    policy = RetryPolicy(max_attempts=config.retry_max_attempts,
                         deadline_ms=config.retry_deadline_ms)
    return ResilientLXPServer(
        server, name=name, policy=policy, breaker=breaker, clock=clock,
        on_failure=config.on_source_failure,
        tracer=tracer)
