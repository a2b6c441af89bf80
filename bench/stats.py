"""Order statistics used for the reported latencies."""

from __future__ import annotations


def percentile(values, q: float) -> float:
    """The q-th percentile (0 <= q <= 100), interpolating linearly between
    the two nearest ranks of the sorted values."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50)


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly beyond the q-th percentile rank."""
    return count - 1 - int((count - 1) * q / 100)
