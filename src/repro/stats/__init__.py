"""Statistics helpers used by the paper's analysis (Section 3) and benches."""

import math
from typing import List

from .correlation import correlation_coefficient, nlrs, normalize_to_min
from .timeline import Timeline, windowed_throughput
from .tables import format_table

__all__ = [
    "nearest_rank",
    "correlation_coefficient",
    "nlrs",
    "normalize_to_min",
    "Timeline",
    "windowed_throughput",
    "format_table",
]


def nearest_rank(ordered: List[float], q: float) -> float:
    """Deterministic nearest-rank percentile over a *sorted* list."""
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(min(max(q, 0.0), 1.0) * len(ordered)))
    return ordered[rank - 1]
