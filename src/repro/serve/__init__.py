"""The online overhead-prediction service (robustness-first).

The paper fits Eq. (1)-(3) offline per run; this package productionizes
the fit in the spirit of uPredict (arXiv:1908.04491): a long-running,
sim-time-driven service that ingests monitor samples forever,
incrementally refits per-PM models with drift detection, versions the
fitted coefficients in a small registry, and answers placement queries
under a deterministic latency model.  It is designed robustness-first:

:mod:`repro.serve.wal`
    Crash-safe ingest: every accepted sample (and every rejected-sample
    *strike*) is appended to a checksummed write-ahead log before it
    touches model state, so a SIGKILL'd service replays to byte-identical
    state on restart (the truncation-tolerant ledger pattern of
    :mod:`repro.perf.manifest`).
:mod:`repro.serve.drift`
    Page-Hinkley residual drift detection that triggers refit epochs.
:mod:`repro.serve.registry`
    Versioned model registry: atomic integrity-guarded snapshots
    (:mod:`repro.perf.integrity`), monotonic version ids, explicit
    promote/rollback, idempotent under WAL replay.
:mod:`repro.serve.service`
    The service itself: bounded per-PM queues with deterministic load
    shedding, stream quarantine on NaN/outlier bursts, a staleness
    circuit breaker that degrades to last-good answers, and a
    :class:`~repro.serve.service.ServiceStats` report.
:mod:`repro.serve.swarm`
    A deterministic client swarm replaying fleet-scale traces (with
    optional :mod:`repro.faults.service` delivery faults) and recording
    sim-time query-latency percentiles.

Everything runs on simulated time -- no wall clock, no ad-hoc RNG --
and the package sits inside the ``repro lint`` deterministic core.
"""

from repro.serve.drift import PageHinkley
from repro.serve.registry import ModelRegistry, ModelVersion, RegistryError
from repro.serve.service import (
    ConfigMismatchWarning,
    PredictionService,
    QueryAnswer,
    ServiceConfig,
    ServiceStats,
)
from repro.serve.swarm import SwarmConfig, SwarmReport, run_swarm
from repro.serve.wal import SampleWAL, WalRecord

__all__ = [
    "ConfigMismatchWarning",
    "ModelRegistry",
    "ModelVersion",
    "PageHinkley",
    "PredictionService",
    "QueryAnswer",
    "RegistryError",
    "SampleWAL",
    "ServiceConfig",
    "ServiceStats",
    "SwarmConfig",
    "SwarmReport",
    "WalRecord",
    "run_swarm",
]
