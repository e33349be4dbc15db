"""Cell descriptors: the atomic, independently runnable units of work.

The reproduction surface is embarrassingly parallel -- every sweep in
:mod:`repro.experiments` decomposes into *cells* whose output is a pure
function of (code, configuration, seed):

* :class:`MicrobenchCell` -- one (benchmark kind, VM count, intensity
  level) simulation of the Figures 2-5 sweeps;
* :class:`PredictionCell` -- one client-count RUBiS deployment of the
  Figures 7-9 prediction experiments;
* :class:`ScenarioTrialCell` -- one (scenario, strategy, trial)
  placement run of the Figure 10 grid;
* :class:`FleetCell` -- one (strategy, trial) fleet simulation
  of the datacenter-scale VOA-vs-VOU experiment.

A cell is a frozen, picklable configuration record.  ``run()`` executes
the cell in the calling process and returns ``(value, events)`` where
``events`` is the number of simulator events dispatched; the heavy
lifting stays in the domain modules (:mod:`repro.experiments.sweeps`,
:mod:`repro.experiments.prediction`, :mod:`repro.placement.scenario`),
imported lazily so descriptor construction never drags the simulation
stack into a process that only needs cache keys.

``config()`` returns a canonical, JSON-serializable description of the
cell -- the content-addressed cache key material.  Unpicklable inputs
(trained models, demand vectors) are folded in as content digests via
:func:`content_digest`, so a cell's key changes exactly when its inputs
change.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.xen.calibration import XenCalibration

#: Bump when cell semantics change incompatibly (invalidates cache keys).
CELL_SCHEMA_VERSION = 1


def content_digest(obj: Any) -> str:
    """Stable content digest of a picklable value (for cache keys).

    Pickle of a value tree (dataclasses, dicts, numpy arrays) is
    deterministic for equal content within one code revision, and the
    cache key also folds in the code fingerprint -- so a digest is
    exactly as stable as the cache requires.
    """
    return hashlib.sha256(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    ).hexdigest()


def _calibration_config(cal: Optional[XenCalibration]) -> Optional[str]:
    return None if cal is None else content_digest(cal)


class Cell:
    """Interface of one unit of parallelizable work."""

    #: Human-readable phase label for profiling ("microbench", ...).
    group: str = "cell"

    def config(self) -> Dict[str, Any]:
        """Canonical JSON-serializable configuration (cache key material)."""
        raise NotImplementedError

    def run(self) -> Tuple[Any, int]:
        """Execute and return ``(value, simulator_events_dispatched)``."""
        raise NotImplementedError

    def label(self) -> str:
        """Short display label for logs and profiles."""
        return f"{self.group}:{content_digest(self.config())[:8]}"


@dataclass(frozen=True)
class MicrobenchCell(Cell):
    """One intensity level of a Figures 2-5 micro-benchmark sweep.

    ``kind`` is a Table II benchmark kind (``cpu``/``mem``/``io``/``bw``)
    or the Figure 5 pseudo-kind ``bw-intra`` (VM1 pings a co-located
    VM2).  The simulator seed is ``seed + index`` -- identical to the
    serial sweep loops this cell was factored from.
    """

    kind: str
    n_vms: int
    level: float
    index: int
    duration: float
    seed: int
    calibration: Optional[XenCalibration] = None

    group = "microbench"

    def config(self) -> Dict[str, Any]:
        return {
            "cell": "microbench",
            "version": CELL_SCHEMA_VERSION,
            "kind": self.kind,
            "n_vms": self.n_vms,
            "level": self.level,
            "index": self.index,
            "duration": self.duration,
            "seed": self.seed,
            "calibration": _calibration_config(self.calibration),
        }

    def run(self) -> Tuple[Any, int]:
        from repro.experiments import sweeps

        return sweeps.run_level_cell(self)

    def label(self) -> str:
        return f"microbench:{self.kind}x{self.n_vms}@{self.level:g}"


@dataclass(frozen=True, eq=False)
class PredictionCell(Cell):
    """One client count of a Figures 7-9 prediction experiment.

    The trained models ride along as picklable objects (workers never
    retrain); the cache key sees them only through their content
    digests, so retrained-but-identical models still hit.
    """

    n_apps: int
    clients: int
    duration: float
    seed: int
    single_model: Any = None
    multi_model: Any = None

    group = "prediction"

    def config(self) -> Dict[str, Any]:
        return {
            "cell": "prediction",
            "version": CELL_SCHEMA_VERSION,
            "n_apps": self.n_apps,
            "clients": self.clients,
            "duration": self.duration,
            "seed": self.seed,
            "single_model": content_digest(self.single_model),
            "multi_model": content_digest(self.multi_model),
        }

    def run(self) -> Tuple[Any, int]:
        from repro.experiments import prediction

        return prediction.run_client_cell(self)

    def label(self) -> str:
        return f"prediction:{self.n_apps}apps@{self.clients}"


@dataclass(frozen=True, eq=False)
class ScenarioTrialCell(Cell):
    """One (scenario, strategy, trial) placement run of Figure 10.

    ``order`` is the VM deployment permutation drawn by the parent's
    scenario RNG *before* fan-out, so the shuffle stream is consumed in
    exactly the serial order.  ``demands`` is the profiled demand map
    ``{vm_name: ResourceVector}`` from the CloudScale profiling phase.
    """

    scenario: int
    strategy: str
    order: Tuple[str, ...]
    seed: int
    duration_s: float
    clients: int
    model: Any = None
    demands: Any = None

    group = "placement"

    def config(self) -> Dict[str, Any]:
        return {
            "cell": "scenario-trial",
            "version": CELL_SCHEMA_VERSION,
            "scenario": self.scenario,
            "strategy": self.strategy,
            "order": list(self.order),
            "seed": self.seed,
            "duration_s": self.duration_s,
            "clients": self.clients,
            "model": content_digest(self.model),
            "demands": content_digest(self.demands),
        }

    def run(self) -> Tuple[Any, int]:
        from repro.placement import scenario as scenario_mod

        return scenario_mod.run_trial_cell(self)

    def label(self) -> str:
        return f"placement:s{self.scenario}:{self.strategy}:{self.seed}"


@dataclass(frozen=True)
class FleetCell(Cell):
    """One (strategy, trial) run of the fleet-scale VOA-vs-VOU sweep.

    The value is the run's :meth:`~repro.cluster.fleet.FleetSummary.
    as_dict` -- bounded per-epoch aggregates, never per-VM state -- so
    a fleet sweep streams cleanly through ``run_cells``' incremental-
    consume mode.
    """

    pms: int
    vms: int
    clients: int
    duration_s: float
    epoch_s: float
    strategy: str
    seed: int
    ramp_s: float
    max_migrations_per_epoch: int

    group = "fleet"

    def config(self) -> Dict[str, Any]:
        return {
            "cell": "fleet",
            "version": CELL_SCHEMA_VERSION,
            "pms": self.pms,
            "vms": self.vms,
            "clients": self.clients,
            "duration_s": self.duration_s,
            "epoch_s": self.epoch_s,
            "strategy": self.strategy,
            "seed": self.seed,
            "ramp_s": self.ramp_s,
            "max_migrations_per_epoch": self.max_migrations_per_epoch,
        }

    def run(self) -> Tuple[Any, int]:
        from repro.cluster import fleet

        return fleet.run_fleet_cell(self)

    def label(self) -> str:
        return f"fleet:{self.strategy}:{self.pms}pm:{self.seed}"
