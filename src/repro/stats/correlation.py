"""The two statistics of the paper's Section 3 analysis.

Equation (1): correlation coefficient (Pearson's r) —

    CC(X, Y) = sum((x - mx)(y - my)) / sqrt(sum((x - mx)^2) sum((y - my)^2))

Equation (2): normalized linear regression slope —

    NLRS(X, Y) = sum((x - mx)(y - my)) / sum((x - mx)^2)

where Y is performance *normalized to the lowest measurement* (the paper
normalizes "because the storage devices show an immense performance
difference").
"""

from __future__ import annotations

import math
from typing import Sequence

from ..errors import InvalidArgument


def _as_arrays(xs: Sequence[float], ys: Sequence[float]):
    if len(xs) != len(ys):
        raise InvalidArgument(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise InvalidArgument("need at least two samples")
    # imported here, not at module level: every process loads this
    # module (obs.provenance -> stats.tables), few ever correlate
    import numpy as np

    return np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)


def correlation_coefficient(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient, Equation (1) of the paper."""
    x, y = _as_arrays(xs, ys)
    dx, dy = x - x.mean(), y - y.mean()
    denom = math.sqrt((dx * dx).sum() * (dy * dy).sum())
    if denom == 0.0:
        return 0.0
    # rounding in the sums can push |r| past 1 (far past it when the
    # deviations are near-subnormal); the true coefficient never does
    return min(1.0, max(-1.0, float((dx * dy).sum() / denom)))


def nlrs(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Normalized linear regression slope, Equation (2) of the paper.

    Callers are expected to pass ``ys`` already normalized to the smallest
    sample (paper Section 3); this function is the raw least-squares slope.
    """
    x, y = _as_arrays(xs, ys)
    dx, dy = x - x.mean(), y - y.mean()
    denom = float((dx * dx).sum())
    if denom == 0.0:
        return 0.0
    return float((dx * dy).sum() / denom)

