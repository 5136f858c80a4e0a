"""Order statistics for latency samples."""

from __future__ import annotations

import math
import statistics

# Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
# A tail percentile needs at least this many samples above it.
MIN_BEYOND = 10
# Fewest measured requests in a run: the smallest count that has a tail (p50).
MIN_SAMPLES = 2 * MIN_BEYOND


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least MIN_BEYOND of ``n`` samples beyond it."""
    best = None
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            best = p
    return best


def percentile(values, p: float) -> float:
    """The ``p``-th percentile of the empirical distribution.

    With q = p/100 * n: the ceil(q)-th smallest sample, or, when q is a whole
    number, the mean of the q-th and (q+1)-th, so that p = 50 is the median.
    Then n - q samples lie beyond the value.
    """
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("no samples")
    q = p / 100.0 * n
    k = round(q)
    if abs(q - k) < 1e-9 and 0 < k < n:
        return (ordered[k - 1] + ordered[k]) / 2.0
    return ordered[min(n, max(1, math.ceil(q - 1e-9))) - 1]


def latency_summary(values) -> dict:
    """Median, tail value, tail percentile and sample count of latencies."""
    n = len(values)
    p = tail_percentile(n)
    if p is None:
        raise ValueError(f"{n} samples are too few for a tail (need {MIN_SAMPLES})")
    return {"p50": statistics.median(values), "tail": percentile(values, p),
            "tail_percentile": p, "samples": n}
