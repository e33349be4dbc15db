"""Tests for the OLS and LMS regression engines."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.regression import (
    LinearModel,
    fit,
    fit_auto,
    fit_lms,
    fit_ols,
    outlier_fraction,
)


def planted_problem(rng, n=200, coef=(2.0, -1.5, 0.5), intercept=3.0, noise=0.0):
    X = rng.uniform(-10, 10, size=(n, len(coef)))
    y = intercept + X @ np.asarray(coef) + noise * rng.normal(size=n)
    return X, y


def overhead_problem(outlier_frac):
    """A Dom0-CPU-shaped fit (intercept 16.8, small per-resource
    slopes) whose first ``outlier_frac`` targets are pushed up by
    30-80 points, the size of a monitoring glitch."""
    rng = np.random.default_rng(12)
    X = rng.uniform(0, 100, size=(400, 4))
    coef = np.array([0.12, 0.0, 0.004, 0.01])
    y = 16.8 + X @ coef + rng.normal(0, 0.3, 400)
    n_out = int(outlier_frac * len(y))
    y[:n_out] += rng.uniform(30, 80, n_out)
    return X, y, coef


class TestLinearModel:
    def test_predict_vector_and_matrix(self):
        m = LinearModel(intercept=1.0, coef=[2.0, 3.0])
        assert m.predict([1.0, 1.0]) == pytest.approx(6.0)
        out = m.predict([[1.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(out, [6.0, 1.0])

    def test_feature_count_checked(self):
        m = LinearModel(intercept=0.0, coef=[1.0, 2.0])
        with pytest.raises(ValueError):
            m.predict([1.0])

    def test_residuals(self):
        m = LinearModel(intercept=0.0, coef=[1.0])
        res = m.residuals([[1.0], [2.0]], [2.0, 2.0])
        np.testing.assert_allclose(res, [1.0, 0.0])


class TestOls:
    def test_recovers_planted_coefficients(self):
        rng = np.random.default_rng(1)
        X, y = planted_problem(rng)
        m = fit_ols(X, y)
        assert m.intercept == pytest.approx(3.0, abs=1e-9)
        np.testing.assert_allclose(m.coef, [2.0, -1.5, 0.5], atol=1e-9)

    def test_recovers_with_noise(self):
        rng = np.random.default_rng(2)
        X, y = planted_problem(rng, n=2000, noise=0.5)
        m = fit_ols(X, y)
        np.testing.assert_allclose(m.coef, [2.0, -1.5, 0.5], atol=0.05)

    def test_handles_constant_column(self):
        # Single-resource benchmarks leave other features constant; the
        # fit must not blow up on the rank-deficient design.
        rng = np.random.default_rng(3)
        X = np.column_stack([rng.uniform(0, 1, 50), np.full(50, 7.0)])
        y = 2.0 * X[:, 0] + 1.0
        m = fit_ols(X, y)
        np.testing.assert_allclose(m.predict(X), y, atol=1e-8)

    def test_beats_lms_on_clean_overhead_data(self):
        # OLS is the efficient estimator on clean data; LMS (with its
        # least-squares polish) comes close but does not win.
        X, y, coef = overhead_problem(0.0)
        ols_err = np.abs(fit_ols(X, y).coef - coef).max()
        lms = fit_lms(X, y, rng=np.random.default_rng(0), n_subsets=200)
        lms_err = np.abs(lms.coef - coef).max()
        assert ols_err < 0.005
        assert lms_err < 0.02
        assert ols_err < lms_err

    @pytest.mark.parametrize(
        "X,y",
        [
            (np.zeros((0, 2)), []),
            (np.ones((3, 2)), [1.0, 2.0]),
            ([[np.nan, 1.0]], [1.0]),
            (np.ones(5), np.ones(5)),  # 1-D X
        ],
    )
    def test_input_validation(self, X, y):
        with pytest.raises(ValueError):
            fit_ols(X, y)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=5, max_value=60),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_ols_exact_on_noiseless_data(self, n, p, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, p))
        coef = rng.normal(size=p)
        y = 1.5 + X @ coef
        m = fit_ols(X, y)
        np.testing.assert_allclose(m.predict(X), y, atol=1e-6)


class TestLms:
    def test_recovers_planted_coefficients(self):
        rng = np.random.default_rng(4)
        X, y = planted_problem(rng, n=150)
        m = fit_lms(X, y, rng=np.random.default_rng(0))
        np.testing.assert_allclose(m.coef, [2.0, -1.5, 0.5], atol=1e-6)

    def test_robust_to_40_percent_outliers(self):
        # The whole point of Rousseeuw's estimator: OLS breaks, LMS holds.
        rng = np.random.default_rng(5)
        X, y = planted_problem(rng, n=200, noise=0.1)
        n_out = 80
        y = y.copy()
        y[:n_out] += rng.uniform(50, 150, size=n_out)  # gross corruption
        lms = fit_lms(X, y, rng=np.random.default_rng(0), n_subsets=500)
        ols = fit_ols(X, y)
        lms_err = np.abs(np.asarray(lms.coef) - [2.0, -1.5, 0.5]).max()
        ols_err = np.abs(np.asarray(ols.coef) - [2.0, -1.5, 0.5]).max()
        assert lms_err < 0.1
        assert ols_err > 5 * lms_err

    def test_beats_ols_at_30_percent_outliers_on_overhead_data(self):
        X, y, coef = overhead_problem(0.3)
        lms = fit_lms(X, y, rng=np.random.default_rng(0), n_subsets=400)
        lms_err = np.abs(lms.coef - coef).max()
        ols_err = np.abs(fit_ols(X, y).coef - coef).max()
        assert lms_err < 0.01
        assert ols_err > 3 * lms_err

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError, match="at least"):
            fit_lms(np.ones((2, 3)), [1.0, 2.0])

    def test_n_subsets_validated(self):
        with pytest.raises(ValueError):
            fit_lms(np.ones((10, 1)), np.ones(10), n_subsets=0)

    def test_reproducible_with_seeded_rng(self):
        rng = np.random.default_rng(6)
        X, y = planted_problem(rng, n=100, noise=1.0)
        a = fit_lms(X, y, rng=np.random.default_rng(42))
        b = fit_lms(X, y, rng=np.random.default_rng(42))
        assert a.intercept == b.intercept
        np.testing.assert_array_equal(a.coef, b.coef)

    def test_refine_flag(self):
        rng = np.random.default_rng(7)
        X, y = planted_problem(rng, n=100, noise=0.5)
        raw = fit_lms(X, y, rng=np.random.default_rng(1), refine=False)
        polished = fit_lms(X, y, rng=np.random.default_rng(1), refine=True)
        # Refinement must not be worse in RMS on clean data.
        rms = lambda m: float(np.sqrt(np.mean(m.residuals(X, y) ** 2)))
        assert rms(polished) <= rms(raw) + 1e-9


class TestOutlierFraction:
    def test_clean_noise_has_small_fraction(self):
        rng = np.random.default_rng(8)
        X, y = planted_problem(rng, n=500, noise=0.5)
        m = fit_ols(X, y)
        assert outlier_fraction(m, X, y) < 0.05

    def test_gross_corruption_detected(self):
        rng = np.random.default_rng(9)
        X, y = planted_problem(rng, n=400, noise=0.2)
        y = y.copy()
        y[:60] *= 5.0  # 15 % corrupted
        m = fit_ols(X, y)
        assert outlier_fraction(m, X, y) > 0.05

    def test_zero_mad_counts_nonzero_residuals(self):
        X = np.arange(20, dtype=float)[:, None]
        y = 2 * X.ravel() + 1
        y[-1] += 100.0  # one wild point on otherwise exact data
        m = LinearModel(intercept=1.0, coef=[2.0])
        frac = outlier_fraction(m, X, y)
        assert frac == pytest.approx(1 / 20)


class TestFitAuto:
    def test_clean_data_is_exactly_ols(self):
        rng = np.random.default_rng(10)
        X, y = planted_problem(rng, n=300, noise=0.5)
        auto = fit_auto(X, y)
        ols = fit_ols(X, y)
        assert auto.intercept == ols.intercept
        np.testing.assert_array_equal(auto.coef, ols.coef)

    def test_corrupted_data_falls_back_to_lms(self):
        rng = np.random.default_rng(11)
        X, y = planted_problem(rng, n=300, noise=0.2)
        y = y.copy()
        y[:60] += rng.uniform(80, 200, size=60)
        auto = fit_auto(X, y, rng=np.random.default_rng(0), n_subsets=500)
        ols = fit_ols(X, y)
        true = np.array([2.0, -1.5, 0.5])
        auto_err = np.abs(np.asarray(auto.coef) - true).max()
        ols_err = np.abs(np.asarray(ols.coef) - true).max()
        assert auto_err < 0.1
        assert ols_err > 5 * auto_err

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            fit_auto(np.ones((10, 1)), np.ones(10), outlier_threshold=1.0)

    def test_deterministic_with_seeded_rng(self):
        rng = np.random.default_rng(12)
        X, y = planted_problem(rng, n=200, noise=0.2)
        y = y.copy()
        y[:50] += 300.0
        a = fit_auto(X, y, rng=np.random.default_rng(3))
        b = fit_auto(X, y, rng=np.random.default_rng(3))
        assert a.intercept == b.intercept
        np.testing.assert_array_equal(a.coef, b.coef)


class TestDispatch:
    def test_fit_dispatches(self):
        X = np.arange(10, dtype=float)[:, None]
        y = 2 * X.ravel() + 1
        assert fit(X, y, method="ols").predict([5.0]) == pytest.approx(11.0)
        assert fit(
            X, y, method="lms", rng=np.random.default_rng(0)
        ).predict([5.0]) == pytest.approx(11.0, abs=1e-6)

    def test_auto_dispatch(self):
        X = np.arange(10, dtype=float)[:, None]
        y = 2 * X.ravel() + 1
        assert fit(X, y, method="auto").predict([5.0]) == pytest.approx(11.0)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            fit(np.ones((5, 1)), np.ones(5), method="ridge")

    def test_ols_rejects_extra_kwargs(self):
        with pytest.raises(TypeError):
            fit(np.ones((5, 1)), np.ones(5), method="ols", n_subsets=3)
