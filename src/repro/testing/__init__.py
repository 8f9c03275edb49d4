"""Deterministic fault injection for resilience testing.

Everything here is test scaffolding that ships with the library (like
``RandomizedLXPServer``): a fake clock, scripted failure schedules,
flaky proxies for the two I/O seams (LXP fills and channel round
trips), and a versioned-snapshot source for cache-invalidation tests.
Nothing in this package ever sleeps for real.
"""

from .faults import (
    DeadLXPServer,
    FailureSchedule,
    FakeClock,
    FlakyChannel,
    FlakyLXPServer,
    VersionedLXPServer,
)

__all__ = [
    "FakeClock", "FailureSchedule",
    "FlakyLXPServer", "FlakyChannel",
    "DeadLXPServer", "VersionedLXPServer",
]
