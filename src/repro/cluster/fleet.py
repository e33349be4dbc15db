"""Fleet-scale datacenter simulator (VOA vs VOU at 1000+ PMs).

The paper compares overhead-aware (VOA) and overhead-unaware (VOU)
placement on 2 PMs and 5 VMs (Fig. 10).  This module runs the same
comparison at datacenter scale: thousands of PMs, tens of thousands of
VMs, and an open-loop client population of 10^5 - 10^6 users
(:class:`repro.rubis.openloop.OpenLoopArrivals`).

Architecture
------------
Every PM is one :class:`repro.sim.process.PeriodicProcess` on a single
:class:`repro.sim.engine.Simulator` (one event queue, clock and set of
named RNG streams).  Each tick a PM advances a fluid load model:
per-VM demand is the VM's peak-demand template scaled by the global
open-loop load factor and a per-PM multiplicative noise draw; PM CPU
requirement is guests + Dom0 + hypervisor via the linear overhead form
(:class:`repro.placement.admission.LinearOverhead`); the served
request rate degrades by ``capacity / required`` when the PM
overloads.  PMs that stay overloaded append a *hotspot* report to a
plain list.

The placement coordinator acts only at the epoch barrier, after each
epoch's ``run_until``: it consumes the epoch's hotspot reports in send
order, decides migrations with the O(1) aggregate admission predicates
of :class:`repro.placement.admission.AdmissionPolicy`, and the
migrations are applied to the PMs (each one's removal before its
arrival, in decision order) before the next epoch runs.  The
coordinator is the single owner of the per-VM templates; a PM keeps
only its ordered VM ids and gathers its template rows from the
coordinator's matrix.

Determinism contract:

* Each PM draws only from its own named stream ``fleet.pm.<i>``;
  deployment draws come from the ``fleet.deploy`` stream before any PM
  exists.  Stream seeds depend on (master seed, name) only.
* Per-epoch aggregates are reduced in PM-index order.

Memory stays bounded at fleet scale: per-PM state is a few small numpy
arrays and the run keeps only per-epoch aggregate series (a handful of
floats per epoch), never per-tick or per-VM history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs import runtime as _obs
from repro.placement.admission import (
    BW,
    CPU,
    IO,
    MEM,
    AdmissionPolicy,
    LinearOverhead,
)
from repro.placement.placer import VOA, VOU
from repro.rubis.openloop import OpenLoopArrivals
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess

#: Strategies the fleet experiment compares.
STRATEGIES = (VOA, VOU)


def pm_stream(index: int) -> str:
    """The named RNG stream of PM ``index``."""
    return f"fleet.pm.{index:05d}"


@dataclass(frozen=True)
class FleetConfig:
    """Shape of one fleet run (defaults are smoke scale; the CLI runs
    1000 PMs / 10^4 VMs / 10^5 clients)."""

    pms: int = 24
    vms: int = 240
    clients: int = 20_000
    duration_s: float = 120.0
    tick_s: float = 1.0
    epoch_s: float = 10.0
    strategy: str = VOA
    seed: int = 0
    # Open-loop arrival profile.
    think_time_s: float = 6.0
    ramp_s: float = 40.0
    wave_amplitude: float = 0.06
    wave_period_s: float = 331.0
    # Per-VM peak-demand template draws [cpu %, mem MB, io b/s, bw Kb/s].
    vm_cpu_lo: float = 8.0
    vm_cpu_hi: float = 22.0
    vm_mem_mb: float = 128.0
    vm_io_lo: float = 10.0
    vm_io_hi: float = 40.0
    vm_bw_lo: float = 50.0
    vm_bw_hi: float = 200.0
    #: Relative sigma of the per-tick multiplicative demand noise.
    demand_noise_rel: float = 0.05
    # Hotspot / migration policy.
    hotspot_ticks: int = 3
    cooldown_s: float = 20.0
    max_migrations_per_epoch: int = 50
    vou_fill: float = 0.95
    voa_headroom: float = 0.88

    def __post_init__(self) -> None:
        if self.pms < 1:
            raise ValueError("pms must be >= 1")
        if self.vms < 1:
            raise ValueError("vms must be >= 1")
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.tick_s <= 0 or self.epoch_s < self.tick_s:
            raise ValueError("need tick_s > 0 and epoch_s >= tick_s")
        if self.duration_s < self.epoch_s:
            raise ValueError("duration_s must cover at least one epoch")
        if self.demand_noise_rel < 0:
            raise ValueError("demand_noise_rel must be >= 0")
        if self.hotspot_ticks < 1:
            raise ValueError("hotspot_ticks must be >= 1")
        if self.max_migrations_per_epoch < 0:
            raise ValueError("max_migrations_per_epoch must be >= 0")

    @property
    def epochs(self) -> int:
        return int(math.ceil(self.duration_s / self.epoch_s))

    def arrivals(self) -> OpenLoopArrivals:
        return OpenLoopArrivals(
            peak_clients=float(self.clients),
            think_time_s=self.think_time_s,
            ramp_s=self.ramp_s,
            wave_amplitude=self.wave_amplitude,
            wave_period_s=self.wave_period_s,
        )

    def policy(self) -> AdmissionPolicy:
        return AdmissionPolicy(
            strategy=self.strategy,
            vou_fill=self.vou_fill,
            voa_headroom=self.voa_headroom,
        )


@dataclass
class FleetSummary:
    """What one fleet run produced (JSON-able)."""

    strategy: str
    seed: int
    pms: int
    vms: int
    epochs: int
    clients: int
    duration_s: float
    # Placement.
    pms_used: int = 0
    placed_forced: int = 0
    # Serving totals (requests).
    offered_total: float = 0.0
    served_total: float = 0.0
    served_fraction: float = 0.0
    # Overload / churn totals.
    overloaded_pm_ticks: int = 0
    hotspots: int = 0
    migrations: int = 0
    migrations_rejected: int = 0
    # Per-epoch series (bounded: one entry per epoch).
    epoch_time: List[float] = field(default_factory=list)
    epoch_offered: List[float] = field(default_factory=list)
    epoch_served: List[float] = field(default_factory=list)
    epoch_overloaded: List[int] = field(default_factory=list)
    epoch_migrations: List[int] = field(default_factory=list)
    # Substrate accounting.
    events: int = 0
    messages: int = 0

    def as_dict(self) -> Dict[str, object]:
        return dict(vars(self))


class _Fleet:
    """The one event queue: every PM ticks on one simulator."""

    def __init__(self, sim: Simulator, config: FleetConfig,
                 coordinator: "_Coordinator", overhead: LinearOverhead,
                 rate_scale: float, effective_capacity_pct: float) -> None:
        self.sim = sim
        self.coordinator = coordinator
        self.arrivals = config.arrivals()
        self.overhead = overhead
        self.effective_capacity_pct = effective_capacity_pct
        self.rate_scale = rate_scale
        self.tick_s = config.tick_s
        self.noise_rel = config.demand_noise_rel
        self.hotspot_ticks = config.hotspot_ticks
        self.cooldown_s = config.cooldown_s
        self.pms: List[_PM] = []
        #: ``(pm, vm)`` hotspot reports of the running epoch, in send order.
        self.hotspots: List[Tuple[int, int]] = []

    def add_pm(self, vm_ids: List[int]) -> None:
        pm = _PM(len(self.pms), self, vm_ids)
        self.pms.append(pm)
        PeriodicProcess(self.sim, self.tick_s, pm.tick)


class _PM:
    """One physical machine: fluid per-tick load model."""

    __slots__ = (
        "index", "fleet", "vm_ids", "templates", "weight_sum", "rng",
        "streak", "cooldown_until", "acc_offered", "acc_served",
        "acc_overloaded", "acc_hotspots",
    )

    def __init__(self, index: int, fleet: _Fleet, vm_ids: List[int]) -> None:
        self.index = index
        self.fleet = fleet
        self.vm_ids = list(vm_ids)
        self._load_templates()
        self.rng = fleet.sim.rng(pm_stream(index))
        self.streak = 0
        self.cooldown_until = 0.0
        self.acc_offered = 0.0
        self.acc_served = 0.0
        self.acc_overloaded = 0
        self.acc_hotspots = 0

    def _load_templates(self) -> None:
        # The coordinator owns the templates; a PM only orders its rows.
        self.templates = self.fleet.coordinator.templates[self.vm_ids]
        self.weight_sum = float(self.templates[:, CPU].sum())

    def reset_epoch(self) -> None:
        self.acc_offered = 0.0
        self.acc_served = 0.0
        self.acc_overloaded = 0
        self.acc_hotspots = 0

    def add_vm(self, vm: int) -> None:
        self.vm_ids.append(vm)
        self._load_templates()

    def remove_vm(self, vm: int) -> None:
        self.vm_ids.remove(vm)
        self._load_templates()

    def tick(self, now: float) -> None:
        fleet = self.fleet
        n = len(self.vm_ids)
        if n == 0:
            return
        rho = fleet.arrivals.load_factor(now)
        if fleet.noise_rel > 0.0:
            noise = self.rng.normal(1.0, fleet.noise_rel, size=n)
            np.clip(noise, 0.5, 1.5, out=noise)
            sum_m = self.templates.T @ (rho * noise)
        else:
            sum_m = self.templates.sum(axis=0) * rho
        required = fleet.overhead.required_cpu(sum_m)
        capacity = fleet.effective_capacity_pct
        offered = fleet.rate_scale * rho * self.weight_sum
        self.acc_offered += offered * fleet.tick_s
        if required <= capacity:
            self.acc_served += offered * fleet.tick_s
            self.streak = 0
            return
        self.acc_served += offered * (capacity / required) * fleet.tick_s
        self.acc_overloaded += 1
        self.streak += 1
        if (
            self.streak >= fleet.hotspot_ticks
            and now >= self.cooldown_until
            and n > 1
        ):
            victim = int(np.argmax(self.templates[:, CPU]))
            fleet.hotspots.append((self.index, self.vm_ids[victim]))
            self.acc_hotspots += 1
            self.cooldown_until = now + fleet.cooldown_s
            self.streak = 0


class _Coordinator:
    """Driver-side placement brain: registry, deployment, migrations."""

    def __init__(self, config: FleetConfig, policy: AdmissionPolicy,
                 templates: np.ndarray) -> None:
        self.config = config
        self.policy = policy
        self.templates = templates
        self.vm_pm = np.full(config.vms, -1, dtype=np.int64)
        self.sums = np.zeros((config.pms, 4), dtype=float)
        self.counts = np.zeros(config.pms, dtype=np.int64)
        self.placed_forced = 0
        self.migrations = 0
        self.migrations_rejected = 0

    def place(self, vm: int, pm: int) -> None:
        self.sums[pm] += self.templates[vm]
        self.counts[pm] += 1
        self.vm_pm[vm] = pm

    def remove(self, vm: int) -> None:
        pm = int(self.vm_pm[vm])
        self.sums[pm] -= self.templates[vm]
        self.counts[pm] -= 1
        self.vm_pm[vm] = -1

    def deploy(self) -> None:
        """Streaming next-fit initial placement (O(vms + pms)).

        The pointer only advances: a PM that rejects the current VM is
        not revisited for later (possibly smaller) ones -- the price of
        a single pass over 10^4 VMs.  When the pointer runs off the
        end the fleet is full under this policy and the VM is forced
        onto the least-loaded PM by predicted required CPU (the
        :class:`~repro.placement.placer.Placer` fallback, scaled).
        """
        pointer = 0
        pms = self.config.pms
        for vm in range(self.config.vms):
            template = self.templates[vm]
            while pointer < pms and not self.policy.admits(
                self.sums[pointer], template
            ):
                pointer += 1
            if pointer < pms:
                self.place(vm, pointer)
                continue
            required = self.policy.overhead.required_cpu_array(self.sums)
            self.place(vm, int(np.argmin(required)))
            self.placed_forced += 1

    def find_target(self, template: np.ndarray,
                    exclude: int) -> Optional[int]:
        mask = self.policy.admits_array(self.sums, template)
        mask[exclude] = False
        if not mask.any():
            return None
        return int(np.argmax(mask))

    def process(
        self, hotspots: List[Tuple[int, int]]
    ) -> List[Tuple[int, int, int]]:
        """Consume one epoch's ``(pm, vm)`` hotspot reports in send order.

        Returns the ``(vm, src, dst)`` migrations decided at this
        barrier, in decision order.
        """
        cfg = self.config
        moves: List[Tuple[int, int, int]] = []
        for pm, vm in hotspots:
            if int(self.vm_pm[vm]) != pm:
                continue  # stale: the VM already migrated away
            if len(moves) >= cfg.max_migrations_per_epoch:
                self.migrations_rejected += 1
                continue
            dst = self.find_target(self.templates[vm], exclude=pm)
            if dst is None:
                self.migrations_rejected += 1
                continue
            self.remove(vm)
            self.place(vm, dst)
            moves.append((vm, pm, dst))
            self.migrations += 1
        return moves


def _draw_templates(config: FleetConfig, sim: Simulator) -> np.ndarray:
    """Per-VM peak-demand templates from the ``fleet.deploy`` stream."""
    rng = sim.rng("fleet.deploy")
    n = config.vms
    cpu = rng.uniform(config.vm_cpu_lo, config.vm_cpu_hi, size=n)
    io = rng.uniform(config.vm_io_lo, config.vm_io_hi, size=n)
    bw = rng.uniform(config.vm_bw_lo, config.vm_bw_hi, size=n)
    templates = np.empty((n, 4), dtype=float)
    templates[:, CPU] = cpu
    templates[:, MEM] = config.vm_mem_mb
    templates[:, IO] = io
    templates[:, BW] = bw
    return templates


def run_fleet(config: FleetConfig) -> FleetSummary:
    """Run one fleet simulation; return its bounded summary."""
    overhead = LinearOverhead.from_calibration()
    policy = config.policy()
    sim = Simulator(seed=config.seed)
    templates = _draw_templates(config, sim)
    coordinator = _Coordinator(config, policy, templates)
    with _obs.span("fleet.run", source="cluster"):
        coordinator.deploy()
        # Offered load follows the VMs: each VM carries a share of the
        # peak open-loop request rate proportional to its CPU template,
        # scaled at runtime by the load factor rho(t).
        total_weight = float(templates[:, CPU].sum())
        peak_rate = float(config.clients) / config.think_time_s
        rate_scale = peak_rate / total_weight
        fleet = _Fleet(sim, config, coordinator, overhead, rate_scale,
                       policy.effective_capacity_pct)
        for pm_index in range(config.pms):
            fleet.add_pm(np.nonzero(coordinator.vm_pm == pm_index)[0].tolist())
        summary = FleetSummary(
            strategy=config.strategy,
            seed=config.seed,
            pms=config.pms,
            vms=config.vms,
            epochs=config.epochs,
            clients=config.clients,
            duration_s=config.duration_s,
            pms_used=int((coordinator.counts > 0).sum()),
            placed_forced=coordinator.placed_forced,
        )
        for epoch in range(config.epochs):
            t_end = min(config.duration_s, (epoch + 1) * config.epoch_s)
            sim.run_until(t_end)
            # Barrier: the coordinator consumes the epoch's hotspot
            # reports and its migrations land before the next epoch.
            hotspots, fleet.hotspots = fleet.hotspots, []
            moves = coordinator.process(hotspots)
            for vm, src, dst in moves:
                fleet.pms[src].remove_vm(vm)
                fleet.pms[dst].add_vm(vm)
            summary.messages += len(hotspots) + 2 * len(moves)
            for kind, count in (("hotspot", len(hotspots)),
                                ("migrate_out", len(moves)),
                                ("migrate_in", len(moves))):
                if count:
                    _obs.inc("repro_fleet_messages_total", count, kind=kind)
            offered = served = 0.0
            overloaded = hotspot_count = 0
            for pm in fleet.pms:
                offered += pm.acc_offered
                served += pm.acc_served
                overloaded += pm.acc_overloaded
                hotspot_count += pm.acc_hotspots
                pm.reset_epoch()
            summary.epoch_time.append(float(t_end))
            summary.epoch_offered.append(offered)
            summary.epoch_served.append(served)
            summary.epoch_overloaded.append(overloaded)
            summary.epoch_migrations.append(len(moves))
            summary.offered_total += offered
            summary.served_total += served
            summary.overloaded_pm_ticks += overloaded
            summary.hotspots += hotspot_count
            _obs.inc("repro_fleet_epochs_total")
        if summary.offered_total > 0:
            summary.served_fraction = (
                summary.served_total / summary.offered_total
            )
        summary.migrations = coordinator.migrations
        summary.migrations_rejected = coordinator.migrations_rejected
        summary.events = sim.dispatched
    _obs.inc("repro_fleet_migrations_total", coordinator.migrations)
    _obs.inc("repro_fleet_hotspots_total", summary.hotspots)
    _obs.set_gauge("repro_fleet_pms", config.pms)
    _obs.set_gauge("repro_fleet_vms", config.vms)
    return summary


def run_fleet_cell(cell) -> Tuple[Dict[str, object], int]:
    """Entry point for :class:`repro.perf.cells.FleetCell`."""
    config = FleetConfig(
        pms=cell.pms,
        vms=cell.vms,
        clients=cell.clients,
        duration_s=cell.duration_s,
        epoch_s=cell.epoch_s,
        strategy=cell.strategy,
        seed=cell.seed,
        ramp_s=cell.ramp_s,
        max_migrations_per_epoch=cell.max_migrations_per_epoch,
    )
    summary = run_fleet(config)
    return summary.as_dict(), summary.events
