"""Tests for repro.baselines.thresholds — MAD / IQR estimators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.thresholds import (
    iqr,
    iqr_upper_threshold,
    mad,
    mad_upper_threshold,
)

utils = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=3, max_size=60
)


class TestMad:
    def test_known_value(self):
        # median=3, deviations |x-3| = [2,1,0,1,2] -> median 1.
        assert mad([1, 2, 3, 4, 5]) == 1.0

    def test_constant_series_zero(self):
        assert mad([0.5] * 10) == 0.0

    def test_robust_to_outliers(self):
        base = [0.5] * 20
        assert mad(base + [100.0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mad([])


class TestIqr:
    def test_known_value(self):
        assert iqr([1, 2, 3, 4, 5]) == pytest.approx(2.0)

    def test_constant_zero(self):
        assert iqr([3.0] * 7) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            iqr([])


class TestUpperThresholds:
    def test_stable_history_high_threshold(self):
        # Low dispersion -> threshold near 1 (safe to pack tight).
        t = mad_upper_threshold([0.5, 0.5, 0.51, 0.49, 0.5])
        assert t > 0.9

    def test_volatile_history_low_threshold(self):
        rng = np.random.default_rng(0)
        history = rng.uniform(0.1, 0.9, size=50)
        t = mad_upper_threshold(history)
        assert t < 0.8

    def test_floor_respected(self):
        history = [0.0, 1.0] * 20  # MAD = 0.5 -> raw threshold < 0
        assert mad_upper_threshold(history, floor=0.5) == 0.5

    def test_short_history_returns_one(self):
        assert mad_upper_threshold([0.5, 0.7]) == 1.0
        assert iqr_upper_threshold([0.5]) == 1.0

    def test_beloglazov_formula(self):
        history = [0.3, 0.5, 0.7, 0.5, 0.5]
        expected = 1.0 - 2.58 * mad(history)
        assert mad_upper_threshold(history) == pytest.approx(max(0.5, expected))

    def test_iqr_variant(self):
        history = [0.2, 0.4, 0.6, 0.8, 0.5]
        expected = 1.0 - 1.5 * iqr(history)
        assert iqr_upper_threshold(history) == pytest.approx(max(0.5, expected))

    def test_invalid_safety_rejected(self):
        with pytest.raises(ValueError):
            mad_upper_threshold([0.5] * 5, safety=-1.0)

    @given(utils)
    @settings(max_examples=60)
    def test_property_threshold_bounded(self, history):
        t = mad_upper_threshold(history)
        assert 0.5 <= t <= 1.0
        t2 = iqr_upper_threshold(history)
        assert 0.5 <= t2 <= 1.0


#: One window matrix: (rows, width, per-row sample counts, seed, whether
#: the empty slots are scattered or trailing, whether values are tied).
windows = st.integers(1, 40).flatmap(
    lambda width: st.tuples(
        st.just(width),
        st.lists(st.integers(0, width), min_size=1, max_size=12),
        st.integers(0, 2**16),
        st.booleans(),
        st.booleans(),
    )
)


def make_windows(width, counts, seed, scattered, tied):
    rng = np.random.default_rng(seed)
    if tied:
        out = rng.choice([0.1, 0.25, 0.5, 0.75, 1.0], size=(len(counts), width))
    else:
        out = rng.uniform(0.0, 1.0, size=(len(counts), width))
    for row, count in zip(out, counts):
        empty = rng.permutation(width)[count:] if scattered else np.arange(count, width)
        row[empty] = np.nan
    return out


class TestRowThresholds:
    """``mad_upper_threshold`` on an (n, W) window matrix."""

    @given(windows, st.sampled_from([0.0, 1.0, 2.58]), st.sampled_from([0.0, 0.5]))
    @settings(max_examples=150, deadline=None)
    def test_each_row_equals_the_1d_call(self, spec, safety, floor):
        matrix = make_windows(*spec)
        got = mad_upper_threshold(matrix, safety=safety, floor=floor)
        assert got.shape == (matrix.shape[0],)
        for row, value in zip(matrix, got):
            samples = row[~np.isnan(row)].tolist()
            # Bit-identical, not approximately equal.
            assert value == mad_upper_threshold(samples, safety=safety, floor=floor)

    def test_rows_shorter_than_three_give_one(self):
        matrix = np.full((3, 6), np.nan)
        matrix[1, :2] = [0.0, 1.0]
        matrix[2, :] = [0.0, 1.0] * 3  # MAD 0.5: the floor
        assert mad_upper_threshold(matrix).tolist() == [1.0, 1.0, 0.5]

    def test_no_rows(self):
        assert mad_upper_threshold(np.empty((0, 30))).shape == (0,)

    def test_invalid_safety_rejected(self):
        with pytest.raises(ValueError):
            mad_upper_threshold(np.zeros((2, 5)), safety=-1.0)
