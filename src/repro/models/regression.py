"""Linear regression engines: ordinary least squares and LMS.

The paper derives its coefficient sets "by applying a regression method
[24]" -- the citation is Rousseeuw's *Least Median of Squares
Regression* (JASA 1984).  We implement both:

* :func:`fit_ols` -- ordinary least squares, the workhorse; minimizes
  the paper's stated error :math:`e = \\sqrt{\\sum_j (\\hat M'_j - \\hat M_j)^2}`.
* :func:`fit_lms` -- Rousseeuw's least *median* of squares via random
  elemental subsets, robust to up to 50 % outliers; followed by the
  standard reweighted-least-squares refinement step.

Both return a :class:`LinearModel` (intercept + coefficient vector).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.sim.rng import generator_from_seed


@dataclass(frozen=True)
class LinearModel:
    """An affine map ``y = intercept + coef . x``.

    The intercept is the paper's :math:`a_o` (resource use of the guest
    OS with no benchmark running); ``coef`` holds
    :math:`(a_c, a_m, a_i, a_n)` when fitted on 4-feature utilization
    vectors.
    """

    intercept: float
    coef: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "coef", np.asarray(self.coef, dtype=float).ravel()
        )

    @property
    def n_features(self) -> int:
        """Number of input features."""
        return len(self.coef)

    def predict(self, X) -> np.ndarray:
        """Evaluate the model on an (n, k) matrix or length-k vector."""
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        if single:
            X = X[None, :]
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"expected {self.n_features} features, got {X.shape[1]}"
            )
        y = self.intercept + X @ self.coef
        return float(y[0]) if single else y

    def residuals(self, X, y) -> np.ndarray:
        """``y - predict(X)`` as an array."""
        return np.asarray(y, dtype=float) - self.predict(X)


def _validate_xy(X, y) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2:
        raise ValueError("X must be 2-D (n_samples, n_features)")
    if X.shape[0] != len(y):
        raise ValueError(
            f"X has {X.shape[0]} rows but y has {len(y)} entries"
        )
    if X.shape[0] == 0:
        raise ValueError("no samples")
    if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
        raise ValueError("X and y must be finite")
    return X, y


def fit_ols(X, y) -> LinearModel:
    """Ordinary least squares with intercept (minimum-norm via lstsq).

    ``lstsq`` handles rank-deficient designs gracefully -- important
    here because single-resource micro benchmarks leave other feature
    columns constant.
    """
    X, y = _validate_xy(X, y)
    A = np.column_stack([np.ones(len(y)), X])
    theta, *_ = np.linalg.lstsq(A, y, rcond=None)
    return LinearModel(intercept=float(theta[0]), coef=theta[1:])


def fit_lms(
    X,
    y,
    *,
    rng: Optional[np.random.Generator] = None,
    n_subsets: int = 300,
    refine: bool = True,
) -> LinearModel:
    """Least Median of Squares regression (Rousseeuw 1984).

    Draws ``n_subsets`` random elemental subsets of ``p+1`` samples,
    exactly fits each, and keeps the candidate minimizing the *median*
    squared residual -- the estimator tolerates up to 50 % arbitrarily
    bad samples.  With ``refine=True`` the winner is polished with a
    reweighted OLS over the inliers (residual within 2.5 robust sigmas),
    the standard finishing step.

    Parameters
    ----------
    rng:
        Random generator for subset sampling (seeded by callers for
        reproducibility; defaults to a fixed-seed generator).
    """
    X, y = _validate_xy(X, y)
    n, p = X.shape
    k = p + 1  # elemental subset size (intercept + p coefficients)
    if n < k:
        raise ValueError(f"need at least {k} samples for LMS, got {n}")
    if n_subsets <= 0:
        raise ValueError("n_subsets must be positive")
    rng = rng or generator_from_seed(0)

    A = np.column_stack([np.ones(n), X])
    best_theta: Optional[np.ndarray] = None
    best_med = np.inf
    for _ in range(n_subsets):
        idx = rng.choice(n, size=k, replace=False)
        sub_A = A[idx]
        sub_y = y[idx]
        # Elemental fits can be singular (duplicate rows); lstsq copes.
        theta, *_ = np.linalg.lstsq(sub_A, sub_y, rcond=None)
        med = float(np.median((y - A @ theta) ** 2))
        if med < best_med:
            best_med = med
            best_theta = theta
    assert best_theta is not None

    if refine and best_med > 0:
        # Rousseeuw's preliminary scale estimate and one RLS step.
        s0 = 1.4826 * (1 + 5.0 / max(1, n - p)) * np.sqrt(best_med)
        resid = y - A @ best_theta
        inliers = np.abs(resid) <= 2.5 * s0
        if inliers.sum() >= k:
            theta, *_ = np.linalg.lstsq(A[inliers], y[inliers], rcond=None)
            best_theta = theta
    return LinearModel(intercept=float(best_theta[0]), coef=best_theta[1:])


#: Residuals beyond this many robust sigmas count as outliers.
OUTLIER_N_SIGMAS = 2.5
#: :func:`fit_auto` falls back to LMS above this outlier fraction.
DEFAULT_OUTLIER_THRESHOLD = 0.05


def outlier_fraction(
    model: LinearModel, X, y, *, n_sigmas: float = OUTLIER_N_SIGMAS
) -> float:
    """Fraction of samples whose residual exceeds ``n_sigmas`` robust sigmas.

    The scale estimate is the MAD of the residuals (1.4826 x median
    absolute deviation), so a minority of arbitrarily bad samples
    cannot inflate it and hide themselves.  A zero MAD (majority of
    samples fit exactly) counts every non-zero residual as an outlier.
    """
    resid = model.residuals(X, y)
    center = float(np.median(resid))
    dev = np.abs(resid - center)
    scale = 1.4826 * float(np.median(dev))
    if scale == 0.0:  # repro: noqa[REP004] exact degenerate-MAD guard (div by zero)
        return float(np.mean(dev > 1e-9))
    return float(np.mean(dev > n_sigmas * scale))


def fit_auto(
    X,
    y,
    *,
    outlier_threshold: float = DEFAULT_OUTLIER_THRESHOLD,
    rng: Optional[np.random.Generator] = None,
    n_subsets: int = 300,
    refine: bool = True,
) -> LinearModel:
    """OLS normally; robust LMS when the data looks corrupted.

    Fits OLS first and measures its own outlier fraction; if more than
    ``outlier_threshold`` of the samples sit beyond
    :data:`OUTLIER_N_SIGMAS` robust sigmas, the sample set is presumed
    corrupted (silent monitor faults, clock skew) and the fit is redone
    with :func:`fit_lms`.  On clean data this is exactly OLS -- the
    robust path is strictly pay-for-use.
    """
    if not 0.0 <= outlier_threshold < 1.0:
        raise ValueError("outlier_threshold must be in [0, 1)")
    X, y = _validate_xy(X, y)
    ols = fit_ols(X, y)
    if outlier_fraction(ols, X, y) <= outlier_threshold:
        return ols
    if X.shape[0] < X.shape[1] + 1:
        return ols  # too few samples for an elemental LMS subset
    return fit_lms(X, y, rng=rng, n_subsets=n_subsets, refine=refine)


def fit(X, y, *, method: str = "ols", **kwargs) -> LinearModel:
    """Dispatch to :func:`fit_ols`, :func:`fit_lms` or :func:`fit_auto`."""
    if method == "ols":
        if kwargs:
            raise TypeError(f"ols takes no extra options, got {sorted(kwargs)}")
        return fit_ols(X, y)
    if method == "lms":
        return fit_lms(X, y, **kwargs)
    if method == "auto":
        return fit_auto(X, y, **kwargs)
    raise ValueError(f"unknown regression method {method!r}")
