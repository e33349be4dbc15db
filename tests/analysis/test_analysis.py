"""Tests for the increase-rate analysis utilities."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    fit_slope,
    increase_rates,
    is_convex,
    summarize_rates,
)


class TestIncreaseRates:
    def test_linear_curve_has_constant_rate(self):
        xs = [0, 10, 20, 30]
        ys = [1, 2, 3, 4]
        np.testing.assert_allclose(increase_rates(xs, ys), [0.1, 0.1, 0.1])

    def test_quadratic_curve_has_growing_rate(self):
        xs = np.array([0.0, 1, 2, 3, 4])
        rates = increase_rates(xs, xs**2)
        assert np.all(np.diff(rates) > 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            increase_rates([1.0], [1.0])
        with pytest.raises(ValueError):
            increase_rates([1.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            increase_rates([2.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            increase_rates([[1, 2]], [[1, 2]])

    def test_summary_matches_paper_style(self):
        # A curve like Dom0 CPU under CPU load: rate 0.01 -> ~0.25.
        xs = np.array([1.0, 30, 60, 90, 99])
        ys = 16.8 + 0.01 * xs + 0.0012 * xs**2
        s = summarize_rates(xs, ys)
        assert s.initial == pytest.approx(0.01 + 0.0012 * 31, abs=0.01)
        assert s.final > s.initial
        assert s.growth > 3
        assert s.overall == pytest.approx((ys[-1] - ys[0]) / 98, rel=1e-9)

    def test_growth_with_zero_initial(self):
        s = summarize_rates([0, 1, 2], [5.0, 5.0, 6.0])
        assert s.growth == float("inf")


class TestFitSlope:
    def test_exact_line(self):
        xs = np.linspace(0, 10, 20)
        assert fit_slope(xs, 3.0 * xs + 2) == pytest.approx(3.0)

    def test_noisy_line(self):
        rng = np.random.default_rng(0)
        xs = np.linspace(0, 100, 200)
        ys = 0.01 * xs + rng.normal(0, 0.01, 200)
        assert fit_slope(xs, ys) == pytest.approx(0.01, abs=0.001)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_slope([1.0], [1.0])
        with pytest.raises(ValueError):
            fit_slope([2.0, 2.0], [1.0, 2.0])


class TestConvexity:
    def test_detects_convex(self):
        xs = np.arange(5, dtype=float)
        assert is_convex(xs**2)
        assert is_convex(xs)  # linear counts as (weakly) convex

    def test_detects_concave(self):
        assert not is_convex(np.sqrt(np.arange(1, 10, dtype=float)))

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            is_convex([1.0, 2.0])

