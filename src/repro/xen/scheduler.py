"""The Xen credit scheduler.

Xen's default scheduler gives each VCPU *credits* in proportion to its
domain weight every accounting period (30 ms), debits credits while the
VCPU runs, and classifies VCPUs as UNDER (credits left) or OVER.  UNDER
VCPUs run before OVER ones; within a class scheduling is round-robin.
An optional per-domain *cap* bounds consumption even when cores idle.

Over any interval long enough to contain many accounting periods the
granted CPU converges to **weighted max-min fairness** (water-filling)
over the demands, truncated by caps -- that is the well-known fluid
limit of the credit algorithm.  The simulator therefore offers two
interchangeable implementations:

* :func:`weighted_water_fill` -- the fluid limit; exact, O(n log n), the
  default used by :class:`~repro.xen.machine.PhysicalMachine` every
  scheduling quantum.
* :class:`CreditScheduler` -- a faithful discrete credit/priority
  round-robin engine, used by the fidelity tests and the scheduler
  ablation benchmark to show the fluid limit matches the discrete
  algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.obs import runtime as _obs

#: Xen's default domain weight.
DEFAULT_WEIGHT = 256
#: Xen's accounting period in seconds (30 ms).
ACCOUNTING_PERIOD = 0.030
#: Xen's time slice in seconds (10 ms, 3 per accounting period).
TIME_SLICE = 0.010


def weighted_water_fill(
    demands: Sequence[float],
    weights: Sequence[float],
    capacity: float,
    caps: Optional[Sequence[float]] = None,
) -> list[float]:
    """Weighted max-min fair allocation of ``capacity``.

    Each client ``i`` receives at most ``min(demands[i], caps[i])``;
    unused share is redistributed to still-hungry clients in proportion
    to their weights (progressive filling).  The result is the unique
    weighted max-min fair allocation.

    Parameters
    ----------
    demands:
        Requested amounts (>= 0), in percentage points.
    weights:
        Positive scheduling weights, same length as ``demands``.
    capacity:
        Total amount available (>= 0).
    caps:
        Optional hard per-client ceilings; ``0`` or ``None`` entries mean
        uncapped (Xen cap semantics).

    Returns
    -------
    list of float
        Granted amounts; ``sum(granted) <= capacity`` and
        ``granted[i] <= min(demands[i], caps[i])``.
    """
    n = len(demands)
    if len(weights) != n:
        raise ValueError("demands and weights must have the same length")
    if caps is not None and len(caps) != n:
        raise ValueError("caps must match demands in length")
    if capacity < 0:
        raise ValueError("capacity must be >= 0")
    if any(d < 0 for d in demands):
        raise ValueError("demands must be >= 0")
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")

    limit = [
        min(demands[i], caps[i])
        if caps is not None and caps[i] and caps[i] > 0
        else demands[i]
        for i in range(n)
    ]
    granted = _water_fill_scalar(limit, weights, capacity)
    if _obs.installed() is not None:
        _obs.inc("repro_sched_water_fill_total")
        _obs.inc("repro_sched_water_fill_clients_total", n)
    return granted


def _water_fill_scalar(
    limit: Sequence[float], weights: Sequence[float], capacity: float
) -> list[float]:
    """Reference progressive-filling loop (pure Python).

    Raise every active client's allocation at a rate proportional to its
    weight until it saturates or capacity is exhausted.  Each round
    saturates at least one client => O(n) rounds.
    """
    n = len(limit)
    granted = [0.0] * n
    active = [i for i in range(n) if limit[i] > 0]
    remaining = float(capacity)
    while active and remaining > 1e-12:
        wsum = sum(weights[i] for i in active)
        # The fill level (per unit weight) at which the next client
        # saturates.
        next_sat = min((limit[i] - granted[i]) / weights[i] for i in active)
        fill = min(next_sat, remaining / wsum)
        for i in active:
            granted[i] += fill * weights[i]
        remaining -= fill * wsum
        if fill == next_sat:
            active = [i for i in active if limit[i] - granted[i] > 1e-12]
        else:
            break
    return granted


@dataclass
class VcpuState:
    """Book-keeping for one VCPU inside :class:`CreditScheduler`."""

    name: str
    weight: int = DEFAULT_WEIGHT
    #: Cap in percent of one physical CPU; 0 = uncapped.
    cap_pct: float = 0.0
    #: Fraction of time this VCPU wants to run (0..1 per VCPU).
    demand_frac: float = 1.0
    credits: float = 0.0
    #: CPU-seconds consumed since the last ``reset_usage``.
    consumed: float = 0.0
    #: CPU-seconds consumed in the current accounting period (cap check).
    consumed_this_period: float = 0.0

    @property
    def priority_under(self) -> bool:
        """UNDER priority (credits remaining)."""
        return self.credits > 0


class CreditScheduler:
    """Discrete credit/priority round-robin scheduler.

    This follows the published credit algorithm closely enough for
    fidelity experiments:

    * every accounting period each VCPU is topped up with
      ``period * ncpus * weight / sum(weights)`` CPU-seconds of credit
      (and stale credit is clipped, as Xen clips at one period's worth);
    * runnable VCPUs are served time slices, UNDER before OVER,
      round-robin within a class;
    * a capped VCPU is descheduled for the rest of the accounting period
      once it has consumed ``cap`` percent of it;
    * the scheduler is work-conserving: idle cores run OVER VCPUs.
    """

    def __init__(self, ncpus: int = 4, *, slice_s: float = TIME_SLICE) -> None:
        if ncpus <= 0:
            raise ValueError("ncpus must be positive")
        if slice_s <= 0 or slice_s > ACCOUNTING_PERIOD:
            raise ValueError("slice must be in (0, accounting period]")
        self.ncpus = ncpus
        self.slice_s = slice_s
        self.vcpus: list[VcpuState] = []
        self._rr_cursor = 0

    def add_vcpu(
        self,
        name: str,
        *,
        weight: int = DEFAULT_WEIGHT,
        cap_pct: float = 0.0,
        demand_frac: float = 1.0,
    ) -> VcpuState:
        """Register a VCPU and return its state record."""
        if any(v.name == name for v in self.vcpus):
            raise ValueError(f"duplicate vcpu name {name!r}")
        v = VcpuState(
            name=name, weight=weight, cap_pct=cap_pct, demand_frac=demand_frac
        )
        self.vcpus.append(v)
        return v

    def run_period(self) -> None:
        """Simulate one 30 ms accounting period."""
        if not self.vcpus:
            return
        self._top_up_scalar()

        # Each core is carved into slices; within a slice a core serves
        # the next runnable VCPU (UNDER first, round-robin) and, when it
        # blocks early, fills the leftover slice time with further
        # runnable VCPUs -- the scheduler is work-conserving at slice
        # granularity.
        slices = max(1, round(ACCOUNTING_PERIOD / self.slice_s))
        for _ in range(slices):
            # A VCPU occupies at most one core at a time within a slice.
            claimed: list[VcpuState] = []
            for _core in range(self.ncpus):
                budget = self.slice_s
                while budget > 1e-12:
                    v = self._pick_next(exclude=claimed)
                    if v is None:
                        break
                    claimed.append(v)
                    remaining = (
                        v.demand_frac * ACCOUNTING_PERIOD
                        - v.consumed_this_period
                    )
                    quota = budget
                    if v.cap_pct > 0:
                        cap_budget = (
                            v.cap_pct / 100.0 * ACCOUNTING_PERIOD
                            - v.consumed_this_period
                        )
                        quota = min(quota, max(0.0, cap_budget))
                    used = min(max(0.0, remaining), quota)
                    if used <= 0:
                        break
                    v.consumed += used
                    v.consumed_this_period += used
                    v.credits -= used
                    budget -= used

    def _top_up_scalar(self) -> None:
        """Reference per-VCPU credit top-up loop."""
        wsum = sum(v.weight for v in self.vcpus)
        for v in self.vcpus:
            v.consumed_this_period = 0.0
            v.credits += ACCOUNTING_PERIOD * self.ncpus * v.weight / wsum
            # Xen clips accumulated credit to bound burstiness.
            v.credits = min(v.credits, ACCOUNTING_PERIOD * self.ncpus)

    def _pick_next(self, exclude: list[VcpuState]) -> Optional[VcpuState]:
        order = self.vcpus[self._rr_cursor:] + self.vcpus[: self._rr_cursor]
        best: Optional[VcpuState] = None
        for v in order:
            if v in exclude or not self._runnable(v):
                continue
            if v.priority_under:
                best = v
                break
            if best is None:
                best = v
        if best is not None:
            self._rr_cursor = (self.vcpus.index(best) + 1) % len(self.vcpus)
        return best

    def _runnable(self, v: VcpuState) -> bool:
        if v.demand_frac <= 0:
            return False
        if v.cap_pct > 0:
            if v.consumed_this_period >= v.cap_pct / 100.0 * ACCOUNTING_PERIOD:
                return False
        # A VCPU whose demand for this period is already met blocks.
        period_demand = v.demand_frac * ACCOUNTING_PERIOD
        return v.consumed_this_period < period_demand - 1e-12

    def run(self, seconds: float) -> dict[str, float]:
        """Run for ``seconds`` and return granted CPU in % per VCPU."""
        if seconds <= 0:
            raise ValueError("seconds must be positive")
        for v in self.vcpus:
            v.consumed = 0.0
        periods = max(1, round(seconds / ACCOUNTING_PERIOD))
        with _obs.span(
            "sched.credit_run", "sched",
            vcpus=len(self.vcpus), periods=periods,
        ):
            for _ in range(periods):
                self.run_period()
        _obs.inc("repro_sched_credit_periods_total", periods)
        horizon = periods * ACCOUNTING_PERIOD
        return {v.name: 100.0 * v.consumed / horizon for v in self.vcpus}


def fair_share(
    demands: Sequence[float], capacity: float
) -> list[float]:
    """Unweighted equal-share allocator (ablation baseline).

    Splits capacity equally with *no* redistribution of unused share.
    Deliberately naive: used by the scheduler ablation to show why
    water-filling (work conservation) is needed to reproduce the
    paper's 95 % / 47 % saturation points.
    """
    n = len(demands)
    if n == 0:
        return []
    share = capacity / n
    return [min(float(d), share) for d in demands]
