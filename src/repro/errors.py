"""The common exception hierarchy.

Every error this library raises for *expected* failure modes (bad
queries, protocol violations, unknown names, malformed inputs) derives
from :class:`ReproError`, so downstream code can write one handler::

    try:
        root = mediator.query(text)
    except ReproError as err:
        ...

Programming errors (wrong types passed to constructors and the like)
still surface as the builtin TypeError/ValueError.

Source-failure taxonomy
-----------------------

The resilience layer (:mod:`repro.runtime.resilience`) needs to know
which failures are worth retrying.  Wrappers and channels classify
their faults into two branches of :class:`SourceError`:

* :class:`TransientSourceError` -- the operation *may* succeed if
  repeated: a dropped connection, a timeout, an overloaded source.
  Retry policies apply; circuit breakers count these.
* :class:`PermanentSourceError` -- repeating the identical request
  cannot help: unknown hole ids, protocol violations, missing pages,
  schema errors.  These fail (or degrade) immediately, never retry.

Failures raised by code outside this library are classified by
:func:`is_transient`: the builtin ``ConnectionError`` and
``TimeoutError`` count as transient, everything else as permanent.
"""

__all__ = [
    "ReproError",
    "SourceError",
    "StaticAnalysisError",
    "TransientSourceError",
    "PermanentSourceError",
    "is_transient",
]


class ReproError(Exception):
    """Base class of all expected repro errors."""


class StaticAnalysisError(ReproError):
    """A query was rejected by the static plan analyzer.

    Raised by ``MIXMediator.prepare(..., analyze="static")`` when the
    analysis finds errors (or, with ``analyze="strict"``, warnings).
    Carries the full :class:`~repro.analysis.findings.AnalysisReport`
    as :attr:`report` so callers can render or export the findings.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class SourceError(ReproError):
    """A failure attributable to a source or a channel."""


class TransientSourceError(SourceError):
    """A source/channel failure that may heal on retry."""


class PermanentSourceError(SourceError):
    """A source/channel failure that retrying cannot fix."""


#: exception types the resilience layer treats as *expected* failures
#: (eligible for retry accounting and degrade mode); anything else is
#: a programming error and propagates untouched.
FAILURE_TYPES = (SourceError, ReproError, ConnectionError, TimeoutError,
                 OSError)


def is_transient(error: BaseException) -> bool:
    """Whether ``error`` is worth retrying."""
    if isinstance(error, TransientSourceError):
        return True
    if isinstance(error, SourceError):
        return False
    return isinstance(error, (ConnectionError, TimeoutError))
