"""Order statistics with the benchmark's percentile rule.

A tail percentile is only reported when at least ten samples lie
beyond it: p99 needs 1000 samples, p99.9 needs 10000.  Percentiles use
the nearest-rank definition, so every reported value is a latency that
was actually observed.
"""

from __future__ import annotations

import math
import statistics
from typing import List, Sequence

#: Samples that must lie strictly beyond a reported tail percentile.
MIN_BEYOND = 10


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of the ``q``-th percentile of ``n`` samples
    (the epsilon keeps ``99.9 * 10000 / 100`` from rounding up)."""
    return max(1, math.ceil(q * n / 100.0 - 1e-9))


def samples_beyond(n: int, q: float) -> int:
    """Samples ranked above the nearest-rank ``q``-th percentile."""
    return n - _rank(n, q)


def supports(n: int, q: float) -> bool:
    """Whether ``n`` samples may report the ``q``-th percentile."""
    return n > 0 and samples_beyond(n, q) >= MIN_BEYOND


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (need not be sorted)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), q) - 1]


def tail(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, refusing a tail the sample cannot carry."""
    if not supports(len(values), q):
        raise ValueError(
            f"{len(values)} samples cannot support p{q:g}: fewer than "
            f"{MIN_BEYOND} would lie beyond it"
        )
    return percentile(values, q)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def slope(xs: List[float], ys: List[float]) -> float:
    """Least-squares slope of ``ys`` over ``xs`` (0 for < 2 points)."""
    if len(xs) < 2:
        return 0.0
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    den = sum((x - mx) ** 2 for x in xs)
    if den == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den
