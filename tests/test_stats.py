"""Package-level statistics helpers."""

from repro.stats import nearest_rank


def test_nearest_rank_is_deterministic_and_clamped():
    ordered = [1.0, 2.0, 3.0, 4.0]
    assert nearest_rank(ordered, 0.5) == 2.0
    assert nearest_rank(ordered, 1.0) == 4.0
    assert nearest_rank(ordered, 0.0) == 1.0
    assert nearest_rank(ordered, -1.0) == 1.0
    assert nearest_rank(ordered, 2.0) == 4.0
    assert nearest_rank([], 0.5) == 0.0
