"""The two statistics of the paper's Section 3 analysis.

Equation (1): correlation coefficient (Pearson's r) —

    CC(X, Y) = sum((x - mx)(y - my)) / sqrt(sum((x - mx)^2) sum((y - my)^2))

Equation (2): normalized linear regression slope —

    NLRS(X, Y) = sum((x - mx)(y - my)) / sum((x - mx)^2)

where Y is performance *normalized to the lowest measurement* (the paper
normalizes "because the storage devices show an immense performance
difference").  Both take two passes, means then deviations, and every
sum is exactly rounded (:func:`math.fsum`).
"""

from __future__ import annotations

import math
from typing import Sequence

from ..errors import InvalidArgument


def _deviations(xs: Sequence[float], ys: Sequence[float]):
    """Each sample's distance from its mean; the means are the first pass."""
    if len(xs) != len(ys):
        raise InvalidArgument(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise InvalidArgument("need at least two samples")
    mx, my = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    return [x - mx for x in xs], [y - my for y in ys]


def correlation_coefficient(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient, Equation (1) of the paper."""
    dx, dy = _deviations(xs, ys)
    denom = math.sqrt(math.fsum(a * a for a in dx) * math.fsum(b * b for b in dy))
    if denom == 0.0:
        return 0.0
    # rounding in the products can push |r| past 1 (far past it when the
    # deviations are near-subnormal); the true coefficient never does
    return min(1.0, max(-1.0, math.fsum(a * b for a, b in zip(dx, dy)) / denom))


def nlrs(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Normalized linear regression slope, Equation (2) of the paper.

    Callers are expected to pass ``ys`` already normalized to the smallest
    sample (paper Section 3); this function is the raw least-squares slope.
    """
    dx, dy = _deviations(xs, ys)
    denom = math.fsum(a * a for a in dx)
    if denom == 0.0:
        return 0.0
    return math.fsum(a * b for a, b in zip(dx, dy)) / denom
