"""Order statistics shared by the benchmark runner and the compare helper.

Only the standard library: the compare helper must run where numpy is not
importable, and the runner must not import numpy before its set-up timer
starts.
"""

from __future__ import annotations

import statistics
from typing import Dict, Optional, Sequence

#: Fewest samples a percentile needs: ten of them must lie above it
#: (so p50 needs 20, p75 needs 40, p90 needs 100).
SAMPLES_BEYOND = 10


def min_samples(q: float) -> int:
    """Sample count at which percentile ``q`` (0..100) has ten samples
    beyond it."""
    return int(round(SAMPLES_BEYOND / (1.0 - q / 100.0)))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..100) of ``values``
    (numpy's default ``linear`` method)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    """The median of ``values``."""
    return percentile(values, 50.0)


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """``{q1, median, q3, spread}`` as ``statistics.quantiles(n=4)`` gives
    them; ``spread`` is ``(q3 - q1) / median``, the share the benchmark's
    bounds are compared against (``None`` when the median is zero)."""
    if len(values) == 1:
        q1 = mid = q3 = float(values[0])
    else:
        q1, mid, q3 = statistics.quantiles(values, n=4)
    spread: Optional[float] = (q3 - q1) / abs(mid) if mid else None
    return {"q1": q1, "median": mid, "q3": q3, "spread": spread}
