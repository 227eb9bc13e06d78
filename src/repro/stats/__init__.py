"""Statistics helpers used by the paper's analysis (Section 3) and benches."""

import math
from typing import List

from ..exports import lazy_exports

_EXPORTS = {
    "correlation_coefficient": "correlation",
    "nlrs": "correlation",
    "Timeline": "timeline",
    "windowed_throughput": "timeline",
    "format_table": "tables",
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS, eager=["nearest_rank"])


def nearest_rank(ordered: List[float], q: float) -> float:
    """Deterministic nearest-rank percentile over a *sorted* list."""
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(min(max(q, 0.0), 1.0) * len(ordered)))
    return ordered[rank - 1]
