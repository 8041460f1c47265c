"""Summary statistics the benchmark reports.

A timing is reported as its median plus the highest percentile that has
at least :data:`TAIL_MIN` samples beyond it, always with the sample
count: a p99 over 150 samples rests on one or two values and says
nothing about the tail.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

#: Candidate tail percentiles, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
#: Samples a reported percentile needs strictly beyond it.
TAIL_MIN = 10


def tail_percentile(n: int) -> Optional[float]:
    """The highest of :data:`PERCENTILES` with ``TAIL_MIN`` samples
    beyond it among *n*, or None when even the median lacks them."""
    supported = [p for p in PERCENTILES if n - _rank(n, p) >= TAIL_MIN]
    return supported[-1] if supported else None


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of the ``p``-th percentile among *n*
    (rounded first so 99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``p``%
    of the sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def tail(values: Sequence[float]) -> Tuple[Optional[float], Optional[float]]:
    """``(p, value)`` for the highest supported percentile of *values*."""
    p = tail_percentile(len(values))
    if p is None:
        return None, None
    return p, percentile(values, p)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the stability
    figure the benchmark's bounds are judged against)."""
    if len(values) < 2:
        return 0.0
    q1, __, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else math.inf


def describe(values: Sequence[float], scale: float = 1.0,
             digits: int = 3) -> str:
    """``median … [pNN …] (n=…)`` for a human-readable line."""
    n = len(values)
    if not n:
        return "n/a (n=0)"
    text = f"median {median(values) * scale:.{digits}f}"
    p, value = tail(values)
    if p is not None and p > 50.0:
        text += f", p{p:g} {value * scale:.{digits}f}"
    elif p is None:
        text += f", no tail percentile (needs >= {2 * TAIL_MIN} samples)"
    return f"{text} (n={n})"
