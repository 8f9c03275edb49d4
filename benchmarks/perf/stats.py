"""Order statistics for the harness: nearest-rank percentiles, the
"ten samples beyond" rule, and the inter-quartile spread the driver
judges steadiness by."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

__all__ = ["percentile", "samples_beyond", "supported", "spread",
           "by_slice"]

#: a percentile is only reported when at least this many samples lie
#: beyond it (choosing-metrics guide, section 1)
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0 < q <= 1) by nearest rank: the smallest
    sample with at least ``q`` of the samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1], got %r" % (q,))
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly beyond the
    nearest-rank ``q``-quantile."""
    return count - math.ceil(q * count)


def supported(count: int, q: float) -> bool:
    """Whether ``count`` samples support reporting the ``q``-quantile
    (at least :data:`MIN_BEYOND` samples beyond it)."""
    return samples_beyond(count, q) >= MIN_BEYOND


def by_slice(ended_s: Sequence[float], values: Sequence[float],
             width_s: float = 1.0, min_count: int = 8) -> list:
    """``values`` grouped by the ``width_s``-second slice of the pass
    their op ended in, slices with fewer than ``min_count`` samples
    dropped; the whole sample as one group when no slice qualifies.

    The sandbox's speed wanders on a timescale of seconds (other
    tenants of the host).  A statistic taken per slice and then
    minimised over slices reads the run's quietest second instead of
    the host's mood: min-of-k noise control, with the k slices of one
    run as the repeats.
    """
    groups: dict = {}
    for ended, value in zip(ended_s, values):
        groups.setdefault(int(ended // width_s), []).append(value)
    kept = [group for group in groups.values()
            if len(group) >= min_count]
    return kept or [list(values)]


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median -- exactly what
    the driver computes over ten runs (``statistics.quantiles``,
    n=4)."""
    first, _second, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)
