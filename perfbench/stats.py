"""Order statistics for the benchmark's timings."""

from __future__ import annotations

import statistics
from typing import Sequence

MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than can support it."""


def median(values: Sequence[float]) -> float:
    """Median, or 0.0 for no values (a layer the workload never entered)."""
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], q: int) -> float:
    """Nearest-rank ``q``-th percentile, refused unless at least
    ``MIN_BEYOND`` samples lie beyond it; p90 therefore needs 100 samples."""
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(values)
    rank = -(-q * n // 100)  # ceil(q * n / 100) in integer arithmetic
    if n - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q} of {n} samples has {n - rank} beyond it; {MIN_BEYOND} needed"
        )
    return sorted(values)[rank - 1]
