import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bdspec import series
from bdspec.errors import EmptyRange


def test_extremize_finite_exhaustive():
    obj = lambda i: -((np.asarray(i, float) - 37.0) ** 2)
    rep = series.extremize(obj, "sup", 0, 100)
    assert rep.arg == 37 and rep.certified is series.Certainty.CERTIFIED


def test_extremize_window_stop_matches_exhaustive():
    obj = lambda i: -((np.asarray(i, float) - 37.0) ** 2)
    rep = series.extremize(obj, "sup", 0, None)
    full = series.extremize(obj, "sup", 0, 5000)
    assert rep.arg == full.arg and rep.value == full.value


def test_extremize_inf_direction_and_ties():
    obj = lambda i: np.where(np.asarray(i) % 7 == 3, -1.0, 0.0)
    rep = series.extremize(obj, "inf", 0, 100)
    assert rep.value == -1.0 and rep.arg == 3  # smallest-index tie-break


def test_extremize_empty_range():
    with pytest.raises(EmptyRange):
        series.extremize(lambda i: np.zeros(np.shape(i)), "sup", 5, 4)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
def test_extremize_dominates_every_scanned_point(vals):
    arr = np.asarray(vals)
    obj = lambda i: arr[np.asarray(i)]
    rep = series.extremize(obj, "sup", 0, len(arr) - 1)
    assert rep.value >= arr.max() - 1e-12 * max(1.0, abs(arr.max()))
    rep2 = series.extremize(obj, "inf", 0, len(arr) - 1)
    assert rep2.value <= arr.min() + 1e-12 * max(1.0, abs(arr.min()))


def test_extremize_pairs_triangle():
    def row(n, ms):
        ms = np.asarray(ms, float)
        return (ms - 10.0) ** 2 + (n - 5.0) ** 2

    rep = series.extremize_pairs(row, "inf", 0, lambda n: n, n_hi=50, m_hi=60)
    assert rep.arg == (5, 10) and rep.value == 0.0


def test_aitken_geometric_exact():
    x = 3.0 + 0.5 ** np.arange(10)
    acc = series.aitken(x)
    assert acc[-1] == pytest.approx(3.0, abs=1e-12)


def test_extrapolate_limit_modes():
    ms = [100, 200, 400, 800, 1600]
    geo = [1.0 + 0.3 ** k for k in range(5)]
    lim, mode = series.extrapolate_limit(ms, geo)
    assert mode == "aitken" and lim == pytest.approx(1.0, abs=1e-6)
    logs = [0.25 + 10.0 / (math.log(m) + 4.0) ** 2 for m in ms]
    lim, mode = series.extrapolate_limit(ms, logs)
    assert mode == "log_model" and lim == pytest.approx(0.25, abs=5e-3)
    flat = [2.0, 2.0, 2.0]
    assert series.extrapolate_limit([1, 2, 3], flat)[1] == "converged"
