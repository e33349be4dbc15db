"""Shared analysis utilities: increase rates of utilization curves."""

from repro.analysis.rates import (
    RateSummary,
    fit_slope,
    increase_rates,
    is_convex,
    summarize_rates,
)

__all__ = [
    "RateSummary",
    "fit_slope",
    "increase_rates",
    "is_convex",
    "summarize_rates",
]
