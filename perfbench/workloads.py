"""The benchmark's three workloads, driven through repro's public functions.

Each workload is set up once per process (imports, model training, input
generation) and then runs its timed body, :meth:`body`, as often as the
run length allows.  :meth:`finish` turns a body's output into an
:class:`Iteration` outside the timed region: how many operations were
attempted, how many failed, and a digest of everything produced, so the
caller can check the output against the committed reference and against
the other iterations of the same run.

Operations are what ``attempted``/``failed`` count: one cell for
``rubis_predict`` (one client-count deployment) and ``fleet`` (one
strategy x trial run), one ``deliver`` or ``query`` call for
``serve_ingest``.  When a figure's shape check fails or its digest does
not match, every cell of that iteration counts as failed, because the
checks are per figure, not per cell.

A timed run sets each workload's ``speed`` to a
:class:`speed.SpeedTrack`; the body then runs the speed probe at fixed
checkpoints (every 50th monitor sample, every simulator epoch, every
100th serve tick).  Traced runs leave it None and probe nothing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro  # noqa: F401  -- first, as the CLI does; see NOTES.md
from repro.cluster.fleet import FleetConfig
from repro.experiments import fig789, fleet as fleet_exp, prediction
from repro.models.samples import TARGETS
from repro.monitor.metrics import ResourceVector
from repro.monitor.script import MeasurementScript
from repro.perf.cells import FleetCell, PredictionCell
from repro.rubis.client import PAPER_CLIENT_COUNTS
from repro.serve.service import (
    QUERY_OK,
    QUERY_UNAVAILABLE,
    VERDICT_ACCEPTED,
    PredictionService,
)
from repro.sim.engine import Simulator
from speed import Checkpoints, SpeedTrack

perf = time.perf_counter


@dataclass
class Iteration:
    """What one run of a workload's timed body did."""

    wall_s: float
    attempted: int
    failed: int
    digest: str
    #: Simulated PM-seconds advanced and monitoring samples processed.
    pm_sim_s: float
    samples: int
    #: ``perf_counter`` start and end of each request answered, in
    #: groups that hold the same requests in every iteration of a run.
    latency_groups: List[List[Tuple[float, float]]] = field(
        default_factory=list)
    #: Shape-check failures (human-readable), empty when all passed.
    problems: List[str] = field(default_factory=list)
    #: Deterministic counts the body can see without instrumentation.
    counters: Dict[str, int] = field(default_factory=dict)


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


class CellClock:
    """Times every ``Cell.run`` of the given classes (the request unit of
    the batch workloads); two clock reads per cell."""

    def __init__(self, *classes) -> None:
        self.classes = classes
        self.spans: List[Tuple[float, float]] = []
        self._saved: List[Tuple[type, Callable]] = []

    def __enter__(self) -> "CellClock":
        for cls in self.classes:
            original = cls.__dict__["run"]
            self._saved.append((cls, original))
            cls.run = self._timed(original)
        return self

    def _timed(self, original):
        record = self.spans.append

        def run(cell):
            t0 = perf()
            out = original(cell)
            record((t0, perf()))
            return out

        return run

    def __exit__(self, *exc) -> None:
        for cls, original in self._saved:
            cls.run = original
        self._saved.clear()

    def take(self) -> List[List[Tuple[float, float]]]:
        """Each cell as its own latency group."""
        out = [[span] for span in self.spans]
        self.spans.clear()
        return out


class RubisPredict:
    """Fig. 8 at paper scale: 2 RUBiS pairs on 2 PMs, 300-700 clients x
    600 s, one cell per client count, run serially."""

    base_seed = 99  # run_fig8's default seed
    pms_per_cell = 2

    def __init__(self, seed: int) -> None:
        self.seed = self.base_seed + seed
        self.cells = len(PAPER_CLIENT_COUNTS)
        self.models = None
        self.clock = CellClock(PredictionCell)
        self.speed: Optional[SpeedTrack] = None

    def setup(self, train: Callable = prediction.trained_models) -> None:
        self.models = train()

    def body(self):
        single, multi = self.models
        # Two scripts sample once per simulated second each.
        with self.clock, Checkpoints(MeasurementScript, "_sample", 50,
                                     self.speed):
            return fig789.run_fig8(
                single_model=single, multi_model=multi, seed=self.seed
            )

    def finish(self, results, wall: float) -> Iteration:
        problems = [
            f"{r.experiment_id}: {c.render()}"
            for r in results for c in r.checks if not c.passed
        ]
        # fig8a/b hold one CPU prediction error per monitor sample.
        samples = sum(
            len(s.x) for r in results if r.experiment_id in ("fig8a", "fig8b")
            for s in r.series
        )
        return Iteration(
            wall_s=wall,
            attempted=self.cells,
            failed=self.cells if problems else 0,
            digest=_digest(r.render() for r in results),
            pm_sim_s=self.cells * self.pms_per_cell
            * (prediction.WARMUP_S + prediction.PAPER_RUN_S),
            samples=samples,
            latency_groups=self.clock.take(),
            problems=problems,
        )


class Fleet:
    """``run_fleet_experiment()`` at its full defaults: 10^3 PMs, 10^4
    VMs, 10^5 open-loop clients, 2 trials x {VOA, VOU}, one shard."""

    base_seed = 2015  # run_fleet_experiment's default seed

    def __init__(self, seed: int) -> None:
        self.seed = self.base_seed + seed
        self.cells = 2 * fleet_exp.DEFAULT_TRIALS
        tick_s = {f.name: f.default for f in dataclasses.fields(FleetConfig)}[
            "tick_s"
        ]
        self.pm_sim_s = (
            self.cells * fleet_exp.DEFAULT_PMS * fleet_exp.DEFAULT_DURATION_S
        )
        # Every PM evaluates its load model once per tick.
        self.samples = int(self.pm_sim_s / tick_s)
        self.clock = CellClock(FleetCell)
        self.speed: Optional[SpeedTrack] = None

    def setup(self) -> None:
        pass

    def body(self):
        # One run_until per epoch: 30 per cell at the defaults.
        with self.clock, Checkpoints(Simulator, "run_until", 1, self.speed):
            return fleet_exp.run_fleet_experiment(seed=self.seed)

    def finish(self, results, wall: float) -> Iteration:
        problems = [
            f"{r.experiment_id}: {c.render()}"
            for r in results for c in r.checks if not c.passed
        ]
        return Iteration(
            wall_s=wall,
            attempted=self.cells,
            failed=self.cells if problems else 0,
            digest=_digest(r.render() for r in results),
            pm_sim_s=self.pm_sim_s,
            samples=self.samples,
            latency_groups=self.clock.take(),
            problems=problems,
        )


class ServeIngest:
    """One closed-loop caller against ``PredictionService``.

    Each sim tick the caller delivers one sample per PM, calls ``tick``,
    then sends ``QUERIES_PER_TICK`` placement queries.  The samples come
    from a planted linear trace whose coefficients scale by
    ``DRIFT_SCALE`` at ``DRIFT_AT``, so drift alarms, RLS refits and
    registry promotions all happen.  Every body gets a fresh state dir.
    """

    PMS = 8
    TICKS = 3000
    QUERIES_PER_TICK = 4
    DRIFT_AT = 1500
    DRIFT_SCALE = 1.6
    NOISE = 0.005
    #: Answers from these tick windows are checked against the planted
    #: truth (before the shift, and once the refit has been promoted).
    CHECK_WINDOWS = ((300, DRIFT_AT), (DRIFT_AT + 500, TICKS))
    TOLERANCE = 0.05
    #: The queries of this many consecutive ticks form one latency
    #: group; a timed body probes the host's speed between two groups.
    GROUP_TICKS = 100

    def __init__(self, seed: int, state_root: Path) -> None:
        self.seed = seed
        self.state_root = state_root
        self.pm_names = [f"pm{i:02d}" for i in range(self.PMS)]
        self.speed: Optional[SpeedTrack] = None

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 0x5E7E])
        n_feat = 4
        intercept = rng.uniform(0.005, 0.05, size=(self.PMS, len(TARGETS)))
        weights = rng.uniform(0.05, 0.4, size=(self.PMS, len(TARGETS), n_feat))
        x = rng.uniform(0.05, 0.9, size=(self.TICKS, self.PMS, n_feat))
        noise = self.NOISE * rng.standard_normal(
            (self.TICKS, self.PMS, len(TARGETS))
        )
        scale = np.where(np.arange(self.TICKS) >= self.DRIFT_AT,
                         self.DRIFT_SCALE, 1.0)
        y = (
            intercept[None]
            + np.einsum("tpf,pkf->tpk", x, weights) * scale[:, None, None]
            + noise
        )
        #: deliveries[tick] = [(pm, seq, x, y), ...]
        self.deliveries = [
            [
                (pm, tick, tuple(x[tick, p].tolist()),
                 dict(zip(TARGETS, y[tick, p].tolist())))
                for p, pm in enumerate(self.pm_names)
            ]
            for tick in range(self.TICKS)
        ]
        q = rng.uniform(0.05, 0.9,
                        size=(self.TICKS, self.QUERIES_PER_TICK, n_feat))
        self.queries = []
        self.truth = []
        for tick in range(self.TICKS):
            row, truth_row = [], []
            for k in range(self.QUERIES_PER_TICK):
                p = (tick * self.QUERIES_PER_TICK + k) % self.PMS
                v = q[tick, k]
                row.append((self.pm_names[p], ResourceVector(*v.tolist())))
                truth_row.append(
                    intercept[p] + weights[p] @ v * float(scale[tick])
                )
            self.queries.append(row)
            self.truth.append(truth_row)

    def body(self):
        self.state_root.mkdir(parents=True, exist_ok=True)
        root = Path(tempfile.mkdtemp(prefix="serve-", dir=self.state_root))
        latencies: List[Tuple[float, float]] = []
        answers = []
        rejected = 0
        mark = self.speed.mark if self.speed is not None else None
        service = PredictionService(root)
        deliver, tick, query = service.deliver, service.tick, service.query
        for t in range(self.TICKS):
            if mark is not None and t and not t % self.GROUP_TICKS:
                mark()
            for pm, seq, x, y in self.deliveries[t]:
                if deliver(pm, seq, t, x, y) != VERDICT_ACCEPTED:
                    rejected += 1
            tick(t)
            for pm, v in self.queries[t]:
                q0 = perf()
                answer = query(pm, v, now=t)
                latencies.append((q0, perf()))
                answers.append(answer)
        service.flush()
        return root, service, answers, latencies, rejected

    def finish(self, out, wall: float) -> Iteration:
        root, service, answers, latencies, rejected = out
        shutil.rmtree(root, ignore_errors=True)
        wrong = self._check_answers(answers)
        stats = service.stats
        versions = [
            f"{mv.pm} v{mv.version} tick={mv.tick} n={mv.n_samples} "
            f"{mv.digest}"
            for pm in service.registry.pms()
            for mv in service.registry.history(pm)
        ]
        problems = []
        if rejected:
            problems.append(f"{rejected} deliveries not accepted")
        if wrong:
            problems.append(f"{wrong} answers off the planted truth")
        if stats.drift_alarms < self.PMS:
            problems.append(
                f"{stats.drift_alarms} drift alarms for {self.PMS} shifted PMs"
            )
        n_ops = len(latencies) + self.TICKS * self.PMS
        per_group = self.GROUP_TICKS * self.QUERIES_PER_TICK
        return Iteration(
            wall_s=wall,
            attempted=n_ops,
            failed=n_ops if stats.drift_alarms < self.PMS
            else rejected + wrong,
            digest=_digest(
                [a.render() for a in answers] + [stats.render()] + versions
            ),
            pm_sim_s=float(self.PMS * self.TICKS),
            samples=stats.accepted,
            latency_groups=[
                latencies[i:i + per_group]
                for i in range(0, len(latencies), per_group)
            ],
            problems=problems,
            counters={
                "serve.wal_records": service.wal.appended,
                "serve.promotions": stats.promotions,
                "serve.drift_alarms": stats.drift_alarms,
                "serve.shed": stats.shed,
            },
        )

    def _check_answers(self, answers) -> int:
        """Count answers that break the service's contract or miss the
        planted truth inside the checked windows."""
        wrong = 0
        per_tick = self.QUERIES_PER_TICK
        for i, answer in enumerate(answers):
            t, k = divmod(i, per_tick)
            if answer.status == QUERY_UNAVAILABLE:
                # Allowed only before the PM's first promotion.
                if t >= self.CHECK_WINDOWS[0][0]:
                    wrong += 1
                continue
            if not any(lo <= t < hi for lo, hi in self.CHECK_WINDOWS):
                continue
            if answer.status != QUERY_OK:
                wrong += 1
                continue
            truth = self.truth[t][k]
            pred = answer.predictions
            if any(
                not math.isfinite(pred[name])
                or abs(pred[name] - truth[j]) > self.TOLERANCE
                for j, name in enumerate(TARGETS)
            ):
                wrong += 1
        return wrong


WORKLOADS = ("rubis_predict", "fleet", "serve_ingest")


def make(name: str, seed: int, state_root: Path):
    if name == "rubis_predict":
        return RubisPredict(seed)
    if name == "fleet":
        return Fleet(seed)
    if name == "serve_ingest":
        return ServeIngest(seed, state_root)
    raise ValueError(f"unknown workload {name!r}")
