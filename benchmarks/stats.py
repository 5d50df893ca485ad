"""Order statistics for the benchmark's reports."""

from __future__ import annotations

import math

TAIL_BEYOND = 10  # samples a reported percentile must have above it


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least a share q
    of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    k = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[k - 1]


def tail_quantile(n: int, cap: float = 0.9, floor: float = 0.5) -> float:
    """The highest quantile, at most `cap`, with TAIL_BEYOND of n samples
    above its nearest-rank sample. Never below `floor`: with fewer than
    2 * TAIL_BEYOND samples the median is the best there is."""
    if n <= 0:
        raise ValueError("no samples")
    return max(floor, min(cap, (n - TAIL_BEYOND) / n))


def beyond(n: int, q: float) -> int:
    """Samples above the nearest-rank q-th sample of n."""
    return n - max(1, math.ceil(q * n - 1e-9))
