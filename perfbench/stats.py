"""Order statistics used by the benchmark report (standard library only)."""

from __future__ import annotations

import math

# A tail percentile is reported only when at least this many samples lie
# beyond it; with fewer, the value is one or two outliers, not a tail.
MIN_BEYOND = 10
TAIL_LEVELS = (0.99, 0.9)


def _rank(p, n):
    # round first so that 0.9 * 100 gives rank 90, not 91
    return math.ceil(round(p * n, 9))


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least a share p
    of all samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"percentile level {p} outside (0, 1]")
    return sorted(values)[_rank(p, len(values)) - 1]


def tail(values, levels=TAIL_LEVELS, min_beyond=MIN_BEYOND):
    """Highest tail percentile with at least ``min_beyond`` samples beyond
    its rank, as ``(level, value, sample_count)``; None when no level has
    enough samples."""
    n = len(values)
    for level in sorted(levels, reverse=True):
        if n and n - _rank(level, n) >= min_beyond:
            return level, percentile(values, level), n
    return None

