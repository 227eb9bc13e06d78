"""Equations (1) and (2): CC and NLRS."""

import pytest
from hypothesis import example, given, strategies as st

from repro.errors import InvalidArgument
from repro.stats import correlation_coefficient, nlrs


def test_perfect_positive_correlation():
    xs = [1, 2, 3, 4]
    ys = [2, 4, 6, 8]
    assert correlation_coefficient(xs, ys) == pytest.approx(1.0)


def test_perfect_negative_correlation():
    assert correlation_coefficient([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)


def test_zero_correlation_constant_y():
    assert correlation_coefficient([1, 2, 3], [5, 5, 5]) == 0.0


def test_nlrs_is_regression_slope():
    xs = [0, 1, 2, 3]
    ys = [1, 3, 5, 7]  # slope 2
    assert nlrs(xs, ys) == pytest.approx(2.0)


def test_nlrs_constant_x_is_zero():
    assert nlrs([2, 2, 2], [1, 5, 9]) == 0.0


def test_length_mismatch_rejected():
    with pytest.raises(InvalidArgument):
        correlation_coefficient([1, 2], [1, 2, 3])
    with pytest.raises(InvalidArgument):
        nlrs([1], [1])


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
# well-separated sample points (avoid catastrophic cancellation noise)
grid = st.integers(-10**6, 10**6).map(float)


@given(st.lists(st.tuples(finite, finite), min_size=2, max_size=50))
# near-subnormal y deviations: rounding in the sums overshoots 1
@example([(0.0, 0.0), (1.0, 5.36e-160)])
def test_cc_bounded(pairs):
    xs = [p[0] for p in pairs]
    ys = [p[1] for p in pairs]
    assert -1.0 <= correlation_coefficient(xs, ys) <= 1.0


@given(st.lists(grid, min_size=2, max_size=50, unique=True))
def test_cc_self_is_one(xs):
    assert correlation_coefficient(xs, xs) == pytest.approx(1.0)


@given(
    st.lists(grid, min_size=2, max_size=30, unique=True),
    st.floats(min_value=0.1, max_value=10),
    st.floats(min_value=-100, max_value=100),
)
def test_nlrs_recovers_linear_slope(xs, slope, intercept):
    ys = [slope * x + intercept for x in xs]
    assert nlrs(xs, ys) == pytest.approx(slope, rel=1e-4, abs=1e-6)


def _numpy_reference(xs, ys):
    """The numpy form both statistics were computed with before."""
    np = pytest.importorskip("numpy")
    x, y = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    dx, dy = x - x.mean(), y - y.mean()
    cc = float((dx * dy).sum() / np.sqrt((dx * dx).sum() * (dy * dy).sum()))
    return cc, float((dx * dy).sum() / (dx * dx).sum())


@given(st.lists(st.tuples(grid, st.floats(min_value=1.0, max_value=1e3)),
                min_size=3, max_size=30, unique_by=lambda p: p[0]))
def test_fsum_statistics_match_the_numpy_form(pairs):
    xs = [p[0] for p in pairs]
    ys = [p[1] for p in pairs]
    if len(set(ys)) < 2:
        return
    cc, slope = _numpy_reference(xs, ys)
    assert correlation_coefficient(xs, ys) == pytest.approx(cc, rel=1e-9, abs=1e-12)
    assert nlrs(xs, ys) == pytest.approx(slope, rel=1e-9, abs=1e-15)
