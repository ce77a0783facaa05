"""Order statistics for latency samples and for sets of repeated runs."""

from __future__ import annotations

import math
import statistics

# A percentile is only reported with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def _rank(count: int, pct: float) -> int:
    """Nearest rank (1-based) of the ``pct`` percentile among ``count``;
    rounded first, so 99.9 % of 10 000 is 9 990 and not 9 990.000000000002."""
    return max(1, math.ceil(round(pct * count / 100.0, 6)))


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile of ``samples`` (which need not be sorted)."""
    if not samples:
        raise ValueError("percentile of no samples")
    return sorted(samples)[_rank(len(samples), pct) - 1]


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie strictly beyond the ``pct`` rank."""
    return count - _rank(count, pct) if count else 0


def supported_percentile(count: int) -> float:
    """The highest of p99.9 / p99 / p95 / p90 / p50 that ``count`` samples
    support with :data:`MIN_SAMPLES_BEYOND` samples beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0):
        if samples_beyond(count, pct) >= MIN_SAMPLES_BEYOND:
            return pct
    return 50.0


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (the driver's
    steadiness measure); 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def worse_by(first: float, second: float, better: str) -> float:
    """By what share of ``first`` the value ``second`` is worse (negative
    when it is better), given the metric's direction."""
    if not first:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change
