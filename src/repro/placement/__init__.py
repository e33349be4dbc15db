"""Overhead-aware resource provisioning (paper Section VI-B)."""

from repro.placement.admission import AdmissionPolicy, LinearOverhead
from repro.placement.autoscaler import ScalerConfig, VerticalScaler
from repro.placement.cloudscale import DemandPredictor, PredictorConfig
from repro.placement.migration import (
    HotspotDetector,
    MigrationPlanner,
    Move,
    VmObservation,
)
from repro.placement.resilient import (
    ExecutorStats,
    MigrationAttempt,
    MigrationExecutor,
    PmCircuitBreaker,
    ResilientControlLoop,
    RetryPolicy,
)
from repro.placement.placer import (
    VOA,
    VOU,
    Placer,
    PlacementPlan,
    PlacementRequest,
)
from repro.placement.scenario import (
    AUX_CPU_PCT,
    DEFAULT_TRIALS,
    SCENARIO_CLIENTS,
    SCENARIO_VM_MEM_MB,
    SCENARIOS,
    VM_NAMES,
    ScenarioResult,
    TrialResult,
    profile_demands,
    run_scenario_experiment,
    run_trial,
)

__all__ = [
    "AUX_CPU_PCT",
    "AdmissionPolicy",
    "LinearOverhead",
    "ScalerConfig",
    "VerticalScaler",
    "ExecutorStats",
    "HotspotDetector",
    "MigrationAttempt",
    "MigrationExecutor",
    "MigrationPlanner",
    "Move",
    "PmCircuitBreaker",
    "ResilientControlLoop",
    "RetryPolicy",
    "VmObservation",
    "DEFAULT_TRIALS",
    "DemandPredictor",
    "Placer",
    "PlacementPlan",
    "PlacementRequest",
    "PredictorConfig",
    "SCENARIOS",
    "SCENARIO_CLIENTS",
    "SCENARIO_VM_MEM_MB",
    "ScenarioResult",
    "TrialResult",
    "VM_NAMES",
    "VOA",
    "VOU",
    "profile_demands",
    "run_scenario_experiment",
    "run_trial",
]
