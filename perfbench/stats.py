"""Summary statistics of a run's samples."""

from __future__ import annotations

import statistics

# A tail percentile is only reported where at least this many samples lie
# beyond it, so that one slow outlier cannot set it.
TAIL_BEYOND = 10


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile that has
    at least TAIL_BEYOND samples beyond it.

    The percentile of the i-th smallest sample (0-based) is 100 (i + 1) / n.
    With TAIL_BEYOND samples or fewer no percentile qualifies; the maximum is
    returned with percentile 100 so the caller can still report something,
    and the sample count shows why.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    i = n - 1 - TAIL_BEYOND
    if i < 0:
        return xs[-1], 100.0, n
    return xs[i], 100.0 * (i + 1) / n, n


def drift(values) -> dict:
    """How far one run's values wander: min, median, max and the max-min
    range as a share of the median."""
    mid = statistics.median(values)
    return {"blocks": len(values), "min": min(values), "median": mid,
            "max": max(values), "range_share": (max(values) - min(values)) / mid}
