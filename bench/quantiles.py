"""Percentiles for the end-to-end latency metrics."""

from __future__ import annotations

import math

LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


def _rank(q: float, n: int) -> int:
    # the epsilon keeps 99.9 % of 10000 at rank 9990, not 9991
    return max(1, math.ceil(q * n / 100 - 1e-9))


def percentile(sorted_values, q: float):
    """Nearest rank: the smallest sample with at least q % of the samples at or below it."""
    return sorted_values[_rank(q, len(sorted_values)) - 1]


def tail(values, min_beyond: int = MIN_BEYOND) -> tuple[float, float, int]:
    """(q, value, beyond) for the highest percentile on LADDER with at least
    `min_beyond` samples ranked beyond it.

    With fewer than 2 * min_beyond samples no rung qualifies, and the median
    is returned with the count it actually has beyond it.
    """
    s = sorted(values)
    if not s:
        raise ValueError("no samples")
    n = len(s)
    chosen = LADDER[0]
    for q in LADDER:
        if n - _rank(q, n) >= min_beyond:
            chosen = q
    beyond = n - _rank(chosen, n)
    return chosen, percentile(s, chosen), beyond
