"""The long-running overhead-prediction service (sim-time driven).

One :class:`PredictionService` owns, per PM stream:

* a **bounded ingest queue** with deterministic load shedding
  (drop-newest past capacity) and a fixed per-tick drain budget, so an
  arrival burst degrades latency, never correctness;
* a **dedup / reorder window** keyed by the stream's sample sequence
  numbers, so duplicated or delayed deliveries (and the re-replayed
  trace after a crash-restart) fold away instead of double-training;
* a **quarantine** that trips after a burst of NaN/outlier samples --
  the same validity-first policy as the monitor's fault masks: an
  invalid sample never reaches a model, and a stream emitting garbage
  is ignored wholesale until its penalty window passes;
* a **live candidate estimator** (:class:`~repro.models.online.OnlineOverheadModel`)
  with Page-Hinkley drift detection on its pre-update residuals;
  an alarm opens a *refit epoch* (fresh candidate) while queries keep
  being answered from the last promoted registry version;
* the **staleness circuit breaker**: queries against a quarantined or
  dark stream answer from the last promoted version with an explicit
  ``degraded`` flag -- never an unfitted model, an exception, or a
  silently stale answer.

Every accepted sample (and every strike) is WAL-logged *before* it
touches state, and registry promotions are idempotent under replay, so
a SIGKILL at any instant loses nothing: restart replays the WAL to
byte-identical model state and the re-replayed trace dedups cleanly.

The service never reads a clock or an RNG stream; ``now`` is simulated
seconds supplied by the driver (the client swarm, or ``--at`` on the
query CLI).
"""

from __future__ import annotations

import dataclasses
import math
import os
import warnings
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, List, Optional, Tuple

from repro.models.online import OnlineOverheadModel
from repro.models.samples import TARGETS, TrainingSample
from repro.monitor.metrics import ResourceVector
from repro.obs import runtime as _obs
from repro.serve.drift import PageHinkley
from repro.serve.registry import ModelRegistry, ModelVersion
from repro.serve.wal import (
    RECORD_SAMPLE,
    RECORD_STRIKE,
    SampleWAL,
    WalRecord,
    decode_line,
    encode_line,
)

#: Pinned-config file inside a service state directory.
CONFIG_NAME = "service.json"


class ConfigMismatchWarning(UserWarning):
    """An explicit config conflicted with the one pinned in the state dir."""

#: Ingest verdicts, in the order they are decided.
VERDICT_ACCEPTED = "accepted"
VERDICT_DUPLICATE = "duplicate"
VERDICT_STALE = "stale"
VERDICT_QUARANTINED = "quarantined"
VERDICT_INVALID = "invalid"
VERDICT_SHED = "shed"

#: Query statuses.
QUERY_OK = "ok"
QUERY_DEGRADED = "degraded"
QUERY_UNAVAILABLE = "unavailable"


@dataclass(frozen=True)
class ServiceConfig:
    """Robustness knobs of the prediction service."""

    #: Bounded per-PM ingest queue; arrivals past this are shed.
    queue_capacity: int = 64
    #: Samples applied per PM per tick (the drain budget).
    drain_per_tick: int = 8
    #: Candidate maturity: applied samples before its first promotion.
    min_fit_samples: int = 24
    #: Re-promote every N applied samples after maturity (0 = only on
    #: maturity / refit epochs).
    promote_every: int = 0
    #: Seconds without an applied sample before a stream counts as dark
    #: and queries degrade to the last promoted version.
    staleness_s: float = 30.0
    #: Invalid samples within :attr:`strike_window_s` that trip quarantine.
    quarantine_strikes: int = 3
    #: Strike-counting window (seconds).
    strike_window_s: float = 10.0
    #: Quarantine length (seconds) once tripped.
    quarantine_s: float = 20.0
    #: Absolute bound on any feature/target magnitude; beyond it a
    #: sample is invalid (reuses the validity-mask philosophy of
    #: :mod:`repro.faults.sampling`: garbage never trains a model).
    outlier_limit: float = 1.0e6
    #: Sequence-number window for reordered-delivery acceptance.
    reorder_window: int = 32
    #: Page-Hinkley tolerance / threshold / burn-in (per-sample
    #: normalized residual units).
    ph_delta: float = 0.05
    ph_lambda: float = 4.0
    ph_min_samples: int = 30
    #: RLS knobs of the candidate estimators.
    forgetting: float = 1.0
    rls_delta: float = 1.0e6
    #: Deterministic sim-latency model for queries (milliseconds).
    query_base_latency_ms: float = 0.5
    query_queue_latency_ms: float = 0.25

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.drain_per_tick < 1:
            raise ValueError("drain_per_tick must be >= 1")
        if self.min_fit_samples < 2:
            raise ValueError("min_fit_samples must be >= 2")
        if self.quarantine_strikes < 1:
            raise ValueError("quarantine_strikes must be >= 1")
        for attr in ("staleness_s", "strike_window_s", "quarantine_s"):
            if getattr(self, attr) <= 0:
                raise ValueError(f"{attr} must be positive")
        if self.reorder_window < 1:
            raise ValueError("reorder_window must be >= 1")
        if self.outlier_limit <= 0:
            raise ValueError("outlier_limit must be positive")


@dataclass
class ServiceStats:
    """What the service did during one process lifetime.

    Replayed WAL records count only into ``recovered_records`` --
    the live counters describe traffic seen by *this* process, which is
    what an operator reading ``repro serve status`` cares about.
    """

    delivered: int = 0
    accepted: int = 0
    applied: int = 0
    duplicates: int = 0
    stale_drops: int = 0
    invalid: int = 0
    quarantine_drops: int = 0
    quarantines: int = 0
    shed: int = 0
    drift_alarms: int = 0
    promotions: int = 0
    rollbacks: int = 0
    queries: int = 0
    queries_ok: int = 0
    queries_degraded: int = 0
    queries_unavailable: int = 0
    recovered_records: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {k: int(v) for k, v in vars(self).items()}

    def render(self) -> str:
        d = self.as_dict()
        lines = ["service stats:"]
        for key in (
            "delivered", "accepted", "applied", "duplicates", "stale_drops",
            "invalid", "quarantine_drops", "quarantines", "shed",
            "drift_alarms", "promotions", "rollbacks", "queries",
            "queries_ok", "queries_degraded", "queries_unavailable",
            "recovered_records",
        ):
            lines.append(f"  {key:<20} {d[key]}")
        return "\n".join(lines)


@dataclass(frozen=True)
class QueryAnswer:
    """One placement query's answer -- always structured, never raised.

    ``degraded`` is the explicit last-good-answer flag: the stream
    behind ``pm`` is quarantined or dark past the staleness threshold
    and ``predictions`` come from the last *promoted* registry version
    rather than a live stream.  ``status`` is ``"unavailable"`` (with
    ``predictions=None``) only when nothing was ever promoted -- an
    unfitted model is never evaluated.
    """

    pm: str
    status: str
    degraded: bool
    reason: str
    version: Optional[int]
    predictions: Optional[Dict[str, float]]
    latency_ms: float
    now: float

    def render(self) -> str:
        head = (
            f"{self.pm} status={self.status} degraded={self.degraded} "
            f"version={self.version if self.version is not None else '-'} "
            f"reason={self.reason or '-'} latency_ms={self.latency_ms:.3f}"
        )
        if self.predictions is None:
            return head
        body = " ".join(
            f"{k}={self.predictions[k]:.4f}" for k in sorted(self.predictions)
        )
        return head + "\n  " + body


@dataclass
class _PmStream:
    """Per-PM mutable service state."""

    name: str
    model: OnlineOverheadModel
    drift: PageHinkley
    queue: Deque[WalRecord] = field(default_factory=deque)
    seq_high: int = -1
    seen: Deque[int] = field(default_factory=deque)
    seen_set: set = field(default_factory=set)
    strikes: Deque[int] = field(default_factory=deque)
    quarantined_until: float = -math.inf
    last_applied_tick: float = -math.inf
    #: Samples applied to the *current* candidate (resets on refit).
    candidate_applied: int = 0
    #: Applied since the last promotion (for promote_every).
    since_promote: int = 0
    #: A drift alarm opened a refit epoch not yet promoted.
    refitting: bool = False


class PredictionService:
    """Crash-safe, drift-aware, versioned online prediction service."""

    def __init__(
        self,
        root,
        *,
        config: Optional[ServiceConfig] = None,
    ) -> None:
        self.root = Path(root)
        self.config = self._pin_config(config)
        self.registry = ModelRegistry(root)
        self.wal = SampleWAL(root)
        self.stats = ServiceStats()
        self.now: float = 0.0
        self._pms: Dict[str, _PmStream] = {}
        #: Coefficient cache keyed by registry version id.
        self._coef_cache: Dict[int, Dict[str, Tuple[float, ...]]] = {}
        self._replaying = False
        self._recover()

    # -- config pinning ---------------------------------------------------

    def _pin_config(self, config: Optional[ServiceConfig]) -> ServiceConfig:
        """Resolve the effective config against the state directory.

        The WAL-replay timeline is only meaningful under the knobs the
        records were written with (maturity thresholds, drain budgets
        and quarantine windows all steer it), so the first open of a
        state dir *pins* its config to ``service.json`` and every later
        open replays under the pinned values.  An explicit differing
        config is reported and ignored -- reopening a state dir for
        ``status``/``query`` must never rewrite its history.
        """
        path = self.root / CONFIG_NAME
        pinned: Optional[ServiceConfig] = None
        if path.is_file():
            body = decode_line(path.read_text(encoding="utf-8").strip())
            if body is None:
                warnings.warn(
                    f"{path}: damaged pinned config; re-pinning from the "
                    "caller's config",
                    ConfigMismatchWarning,
                    stacklevel=3,
                )
            else:
                known = {f.name for f in dataclasses.fields(ServiceConfig)}
                pinned = ServiceConfig(
                    **{k: v for k, v in body.items() if k in known}
                )
        if pinned is not None:
            if config is not None and config != pinned:
                diffs = ", ".join(
                    f"{f.name}: {getattr(pinned, f.name)} != "
                    f"{getattr(config, f.name)}"
                    for f in dataclasses.fields(ServiceConfig)
                    if getattr(pinned, f.name) != getattr(config, f.name)
                )
                warnings.warn(
                    f"{path}: state dir pins the service config; ignoring "
                    f"differing explicit values ({diffs})",
                    ConfigMismatchWarning,
                    stacklevel=3,
                )
            return pinned
        effective = config or ServiceConfig()
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + f".tmp.{os.getpid()}")
        tmp.write_text(
            encode_line(dataclasses.asdict(effective)) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, path)
        return effective

    # -- crash recovery --------------------------------------------------

    def _recover(self) -> None:
        """Replay the WAL into byte-identical in-memory/registry state."""
        with _obs.span("serve.recover", source="serve"):
            records = self.wal.recover()
            if not records:
                return
            self._replaying = True
            try:
                replay_now = records[0].tick
                for record in records:
                    while replay_now < record.tick:
                        self._drain_tick(replay_now)
                        replay_now += 1
                    if record.kind == RECORD_STRIKE:
                        self._register_strike(record.pm, record.seq, record.tick)
                    else:
                        state = self._stream(record.pm)
                        self._mark_seen(state, record.seq)
                        state.queue.append(record)
                self.now = float(replay_now)
            finally:
                self._replaying = False
            self.stats.recovered_records = len(records)
            _obs.inc("serve_recovered_records_total", len(records))

    # -- stream bookkeeping ----------------------------------------------

    def _stream(self, pm: str) -> _PmStream:
        state = self._pms.get(pm)
        if state is None:
            cfg = self.config
            state = _PmStream(
                name=pm,
                model=OnlineOverheadModel(
                    forgetting=cfg.forgetting, delta=cfg.rls_delta
                ),
                drift=PageHinkley(
                    delta=cfg.ph_delta,
                    lambda_=cfg.ph_lambda,
                    min_samples=cfg.ph_min_samples,
                ),
            )
            self._pms[pm] = state
        return state

    def _mark_seen(self, state: _PmStream, seq: int) -> None:
        state.seen.append(seq)
        state.seen_set.add(seq)
        state.seq_high = max(state.seq_high, seq)
        floor = state.seq_high - self.config.reorder_window
        while state.seen and state.seen[0] <= floor:
            state.seen_set.discard(state.seen.popleft())

    def _register_strike(self, pm: str, seq: int, tick: float) -> bool:
        """Count one invalid sample; returns True when quarantine trips."""
        state = self._stream(pm)
        self._mark_seen(state, seq)
        state.strikes.append(tick)
        floor = tick - self.config.strike_window_s
        while state.strikes and state.strikes[0] < floor:
            state.strikes.popleft()
        if len(state.strikes) >= self.config.quarantine_strikes:
            state.quarantined_until = tick + self.config.quarantine_s
            state.strikes.clear()
            if not self._replaying:
                self.stats.quarantines += 1
                _obs.inc("serve_quarantines_total", pm=pm)
            return True
        return False

    # -- ingest ----------------------------------------------------------

    def deliver(
        self,
        pm: str,
        seq: int,
        tick: float,
        x,
        y: Dict[str, float],
    ) -> str:
        """Offer one monitor sample to the service; returns the verdict.

        ``tick`` is the *delivery* time in sim seconds.  Deliveries for
        a tick must precede :meth:`tick` for that tick; late deliveries
        (reordered streams, post-crash re-replays) are accepted, deduped
        or dropped by the sequence window -- never an error.
        """
        self.stats.delivered += 1
        state = self._stream(pm)
        verdict = self._classify(state, seq, tick, x, y)
        self.stats.__dict__[_VERDICT_COUNTER[verdict]] += 1
        _obs.inc("serve_samples_total", verdict=verdict)
        return verdict

    def _classify(
        self, state: _PmStream, seq: int, tick: float, x, y: Dict[str, float]
    ) -> str:
        if tick < self.now:
            # A delivery older than the service clock: either a stray
            # late packet or -- after a crash-restart -- the driver
            # re-replaying already-processed trace.  Dropping it keeps
            # even never-logged verdicts (shed, quarantined) from being
            # re-adjudicated against post-recovery queue state, which is
            # what makes resumed runs byte-identical to clean ones.
            return VERDICT_STALE
        if seq in state.seen_set:
            return VERDICT_DUPLICATE
        if seq <= state.seq_high - self.config.reorder_window:
            return VERDICT_STALE
        if tick < state.quarantined_until:
            return VERDICT_QUARANTINED
        values = [float(v) for v in x] + [float(v) for v in y.values()]
        limit = self.config.outlier_limit
        if any(not math.isfinite(v) or abs(v) > limit for v in values):
            self.wal.append(
                WalRecord(
                    kind=RECORD_STRIKE, pm=state.name, seq=int(seq),
                    tick=int(tick),
                )
            )
            self._register_strike(state.name, int(seq), tick)
            return VERDICT_INVALID
        if len(state.queue) >= self.config.queue_capacity:
            return VERDICT_SHED
        record = WalRecord(
            kind=RECORD_SAMPLE,
            pm=state.name,
            seq=int(seq),
            tick=int(tick),
            x=tuple(float(v) for v in x),
            y=tuple(sorted((str(k), float(v)) for k, v in y.items())),
        )
        self.wal.append(record)
        self._mark_seen(state, int(seq))
        state.queue.append(record)
        return VERDICT_ACCEPTED

    # -- the sim-time heartbeat ------------------------------------------

    def tick(self, now: float) -> None:
        """Advance the service through sim second ``now``.

        Drains every queue by the per-tick budget, applies samples to
        the candidate estimators, runs drift detection and promotion.
        Ticks at or before an already-processed time are no-ops, which
        is what lets a restarted service absorb a driver re-replaying
        its timeline from zero.
        """
        if now < self.now:
            return
        tick = self.now
        while tick <= now:
            self._drain_tick(tick)
            tick += 1
        self.now = float(now) + 1.0

    def flush(self, now: Optional[float] = None) -> None:
        """Drain every queue to empty (end of a replayed trace)."""
        tick = self.now if now is None else max(now, self.now)
        while any(state.queue for state in self._pms.values()):
            self._drain_tick(tick)
            tick += 1
        self.now = float(tick)
        self.wal.close()

    def _drain_tick(self, tick: float) -> None:
        for pm in sorted(self._pms):
            state = self._pms[pm]
            budget = self.config.drain_per_tick
            while budget > 0 and state.queue:
                record = state.queue.popleft()
                self._apply(state, record, tick)
                budget -= 1
            self._maybe_promote(state, tick)

    def _apply(self, state: _PmStream, record: WalRecord, tick: float) -> None:
        targets = dict(record.y)
        x = ResourceVector(*record.x)
        # Pre-update residual feeds the drift detector once the
        # candidate is mature enough for its predictions to mean much.
        if state.candidate_applied >= self.config.min_fit_samples:
            predicted = state.model.predict(x)
            residual = sum(
                abs(targets[t] - predicted[t]) / (1.0 + abs(targets[t]))
                for t in TARGETS
            ) / len(TARGETS)
            if state.drift.update(residual):
                self._open_refit_epoch(state, tick)
        state.model.update(
            TrainingSample(n_vms=1, vm_sum=x, targets=targets)
        )
        state.candidate_applied += 1
        state.since_promote += 1
        state.last_applied_tick = tick
        if not self._replaying:
            self.stats.applied += 1

    def _open_refit_epoch(self, state: _PmStream, tick: float) -> None:
        cfg = self.config
        state.model = OnlineOverheadModel(
            forgetting=cfg.forgetting, delta=cfg.rls_delta
        )
        state.drift = PageHinkley(
            delta=cfg.ph_delta, lambda_=cfg.ph_lambda,
            min_samples=cfg.ph_min_samples,
        )
        state.candidate_applied = 0
        state.refitting = True
        if not self._replaying:
            self.stats.drift_alarms += 1
        _obs.inc("serve_drift_alarms_total", pm=state.name)

    def _maybe_promote(self, state: _PmStream, tick: float) -> None:
        cfg = self.config
        mature = state.candidate_applied >= cfg.min_fit_samples
        if not mature:
            return
        never_promoted = self.registry.replay_active(state.name) is None
        due_epoch = state.refitting or never_promoted
        due_periodic = (
            cfg.promote_every > 0 and state.since_promote >= cfg.promote_every
        )
        if not due_epoch and not due_periodic:
            return
        targets = {
            t: {
                "intercept": m.intercept,
                "coef": [float(c) for c in m.coef],
            }
            for t in TARGETS
            for m in (state.model.coefficients(t),)
        }
        self.registry.promote(
            state.name, targets,
            tick=int(tick), n_samples=state.candidate_applied,
        )
        state.refitting = False
        state.since_promote = 0
        if not self._replaying:
            self.stats.promotions += 1
            _obs.inc("serve_promotions_total", pm=state.name)

    # -- queries ----------------------------------------------------------

    def query(self, pm: str, vm_util: ResourceVector, now: float) -> QueryAnswer:
        """Answer one placement query -- structured under every failure.

        The answer always comes from the last *promoted* registry
        version: ``degraded=True`` flags a quarantined or dark stream,
        and a PM with no promotion yet (or unknown entirely) gets
        ``status="unavailable"`` with ``predictions=None``.
        """
        self.stats.queries += 1
        state = self._pms.get(pm)
        queue_depth = len(state.queue) if state is not None else 0
        latency = (
            self.config.query_base_latency_ms
            + self.config.query_queue_latency_ms * queue_depth
        )
        _obs.observe("serve_query_latency_ms", latency)
        active = self.registry.active(pm)
        if active is None:
            self.stats.queries_unavailable += 1
            _obs.inc("serve_queries_total", status=QUERY_UNAVAILABLE)
            reason = "unknown pm" if state is None else "no promoted model"
            return QueryAnswer(
                pm=pm, status=QUERY_UNAVAILABLE, degraded=False,
                reason=reason, version=None, predictions=None,
                latency_ms=latency, now=now,
            )
        degraded, reason = self._degradation(state, now)
        predictions = self._evaluate(active, vm_util)
        status = QUERY_DEGRADED if degraded else QUERY_OK
        if degraded:
            self.stats.queries_degraded += 1
        else:
            self.stats.queries_ok += 1
        _obs.inc("serve_queries_total", status=status)
        return QueryAnswer(
            pm=pm, status=status, degraded=degraded, reason=reason,
            version=active.version, predictions=predictions,
            latency_ms=latency, now=now,
        )

    def _degradation(
        self, state: Optional[_PmStream], now: float
    ) -> Tuple[bool, str]:
        if state is None:
            return True, "stream dark (never ingested)"
        if now < state.quarantined_until:
            return True, "stream quarantined"
        if now - state.last_applied_tick > self.config.staleness_s:
            return True, "stream dark (staleness threshold exceeded)"
        return False, ""

    def _coefficients(self, mv: ModelVersion) -> Dict[str, Tuple[float, ...]]:
        cached = self._coef_cache.get(mv.version)
        if cached is None:
            payload = self.registry.load_payload(mv)
            cached = {
                t: (
                    float(spec["intercept"]),
                    *(float(c) for c in spec["coef"]),
                )
                for t, spec in payload["targets"].items()
            }
            self._coef_cache[mv.version] = cached
        return cached

    def _evaluate(
        self, mv: ModelVersion, vm_util: ResourceVector
    ) -> Dict[str, float]:
        coef = self._coefficients(mv)
        x = (vm_util.cpu, vm_util.mem, vm_util.io, vm_util.bw)
        out = {
            t: row[0] + sum(c * v for c, v in zip(row[1:], x))
            for t, row in coef.items()
        }
        out["pm.cpu"] = out["dom0.cpu"] + out["hyp.cpu"] + vm_util.cpu
        return out

    # -- operator actions -------------------------------------------------

    def rollback(self, pm: str, now: float) -> ModelVersion:
        """Explicitly revert one PM to its previous promoted version."""
        mv = self.registry.rollback(pm, tick=int(now))
        self.stats.rollbacks += 1
        _obs.inc("serve_rollbacks_total", pm=pm)
        return mv

    # -- inspection -------------------------------------------------------

    def queue_depths(self) -> Dict[str, int]:
        return {pm: len(state.queue) for pm, state in sorted(self._pms.items())}

    def status_report(self, now: Optional[float] = None) -> str:
        """Operator-facing digest (CLI ``repro serve status``)."""
        at = self.now if now is None else now
        lines = [
            f"service time:      t={at:g}s "
            f"({len(self._pms)} stream(s), "
            f"{self.wal.byte_size()} WAL byte(s))",
        ]
        for pm in sorted(self._pms):
            state = self._pms[pm]
            active = self.registry.active(pm)
            degraded, reason = self._degradation(state, at)
            health = "degraded" if degraded else "healthy"
            lines.append(
                f"  {pm:<10} {health:<9} "
                f"active={'v%d' % active.version if active else '-':<7} "
                f"queue={len(state.queue):<4} "
                f"applied={state.candidate_applied:<6} "
                f"{('[' + reason + ']') if reason else ''}".rstrip()
            )
        lines.append(self.registry.render())
        lines.append(self.stats.render())
        return "\n".join(lines)


#: Verdict -> ServiceStats attribute.
_VERDICT_COUNTER = {
    VERDICT_ACCEPTED: "accepted",
    VERDICT_DUPLICATE: "duplicates",
    VERDICT_STALE: "stale_drops",
    VERDICT_QUARANTINED: "quarantine_drops",
    VERDICT_INVALID: "invalid",
    VERDICT_SHED: "shed",
}
