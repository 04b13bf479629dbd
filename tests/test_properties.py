"""Property tests of the interval container and the conformal quantile."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from unitcp import PredictionInterval, conformal_quantile

unit = st.floats(0.0, 1.0)
levels = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
percent = st.integers(1, 99)  # alpha = j / 100
scores = st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=300)

# no example is slow; a shared machine can still make one miss a deadline
quick = settings(deadline=None)


@quick
@given(unit, unit, levels, st.floats(allow_nan=True))
def test_prediction_interval_invariants(a, b, level, y):
    iv = PredictionInterval(min(a, b), max(a, b), level)
    assert 0.0 <= iv.lower <= iv.upper <= 1.0
    assert iv.width >= 0.0
    assert iv.contains(iv.lower) and iv.contains(iv.upper)
    assert iv.contains(y) == (iv.lower <= y <= iv.upper)
    empty = PredictionInterval(math.nan, math.nan, level, empty=True)
    assert empty.width == 0.0 and not empty.contains(y)


@quick
@given(scores, percent)
def test_conformal_quantile_is_the_exact_rank(s, j):
    k = math.ceil(Fraction(100 - j, 100) * (len(s) + 1))
    expected = math.inf if k > len(s) else sorted(s)[k - 1]
    assert conformal_quantile(s, j / 100) == expected


@quick
@given(scores, percent, percent)
def test_conformal_quantile_does_not_increase_with_alpha(s, i, j):
    lo, hi = sorted((i, j))
    assert conformal_quantile(s, lo / 100) >= conformal_quantile(s, hi / 100)
