"""RUBiS application model (paper Section VI evaluation workload)."""

from repro.rubis.app import RUBiSApplication
from repro.rubis.client import (
    DEFAULT_THINK_TIME_S,
    PAPER_CLIENT_COUNTS,
    ClientPopulation,
)
from repro.rubis.openloop import OpenLoopArrivals
from repro.rubis.requests import (
    BIDDING_MIX,
    RequestClass,
    TierDemand,
    mix_demand,
    per_request_cost,
)

__all__ = [
    "BIDDING_MIX",
    "ClientPopulation",
    "DEFAULT_THINK_TIME_S",
    "OpenLoopArrivals",
    "PAPER_CLIENT_COUNTS",
    "RequestClass",
    "RUBiSApplication",
    "TierDemand",
    "mix_demand",
    "per_request_cost",
]
