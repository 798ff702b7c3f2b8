"""Summary statistics for benchmark samples.

A timing is reported as its median plus the highest percentile of a fixed
ladder that still has at least ten samples beyond it, together with the
sample count.  Percentiles use the nearest-rank rule, so every reported
value is one of the samples.
"""

from __future__ import annotations

import math
import statistics

PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_TAIL_SAMPLES = 10


def _rank(p: float, n: int) -> int:
    # Rounded first so that 99.9 % of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def nearest_rank(sorted_values, p: float) -> float:
    """The p-th percentile of already sorted values by the nearest-rank rule."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    return sorted_values[_rank(p, len(sorted_values)) - 1]


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ten of n samples above its rank."""
    best = None
    for p in PERCENTILE_LADDER:
        if n - _rank(p, n) >= MIN_TAIL_SAMPLES:
            best = p
    return best


def summarize(values) -> dict:
    """Median, the tail percentile the ladder allows, and the sample count."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return {"n": 0, "median": None, "tail_p": None, "tail": None}
    p = tail_percentile(n)
    return {
        "n": n,
        "median": statistics.median(ordered),
        "tail_p": p,
        "tail": nearest_rank(ordered, p) if p is not None else None,
        "min": ordered[0],
        "max": ordered[-1],
    }


def quartile_spread(values) -> float:
    """Interquartile distance as a share of the median (Python's default quantiles)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
