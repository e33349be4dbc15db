"""Supervised execution: worker death, hangs, retries, degradation.

The worker faults are injected deterministically through
:mod:`repro.faults.workers` (SIGKILL / stall on first attempt, marker
file makes retries clean), so every recovery path is exercised with a
real process pool and the recovered output can be compared
byte-for-byte against a clean run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

import pytest

from repro.faults.workers import WORKER_KILL, WORKER_STALL, FaultableCell
from repro.perf.cells import Cell, MicrobenchCell
from repro.perf.executor import ExecutionContext, execution_context, run_cells
from repro.perf.manifest import RunManifest
from repro.perf.supervisor import (
    CellExecutionError,
    SupervisorConfig,
    reset_stats,
    stats,
)
from repro.sim import sanitize

#: Fast supervision knobs: tests must not wait out real backoffs.
QUICK = SupervisorConfig(deadline_s=30.0, backoff_base_s=0.0)


def _cell(level: float = 25.0, **overrides) -> MicrobenchCell:
    kwargs = dict(
        kind="cpu", n_vms=1, level=level, index=0, duration=4.0, seed=42
    )
    kwargs.update(overrides)
    return MicrobenchCell(**kwargs)


def _cells(n: int = 3):
    return [_cell(10.0 + 20.0 * i, index=i) for i in range(n)]


@dataclass(frozen=True, eq=False)
class BoomCell(Cell):
    """A cell that fails permanently (every attempt raises)."""

    ident: int = 0

    group = "boom"

    def config(self) -> Dict[str, Any]:
        return {"cell": "boom", "ident": self.ident}

    def run(self) -> Tuple[Any, int]:
        raise RuntimeError("boom")

    def label(self) -> str:
        return f"boom[{self.ident}]"


@pytest.fixture(autouse=True)
def _fresh_stats():
    reset_stats()
    yield
    reset_stats()


class TestConfig:
    def test_backoff_schedule_is_deterministic_doubling(self):
        cfg = SupervisorConfig(backoff_base_s=0.1)
        assert cfg.backoff_s(1) == 0.0
        assert cfg.backoff_s(2) == pytest.approx(0.1)
        assert cfg.backoff_s(3) == pytest.approx(0.2)
        assert cfg.backoff_s(4) == pytest.approx(0.4)

    def test_zero_base_disables_backoff(self):
        assert SupervisorConfig(backoff_base_s=0.0).backoff_s(5) == 0.0


class TestCrashedWorker:
    def test_killed_worker_is_retried_and_output_identical(self, tmp_path):
        clean = run_cells(_cells())
        faulted = [
            FaultableCell(
                inner=cell,
                marker_dir=str(tmp_path),
                fault=WORKER_KILL if i == 1 else None,
            )
            for i, cell in enumerate(_cells())
        ]
        with execution_context(ExecutionContext(jobs=2, supervisor=QUICK)):
            values = run_cells(faulted)
        assert values == clean
        s = stats()
        assert s.retries >= 1
        assert s.pool_rebuilds >= 1
        assert s.recovered
        assert s.failed == []

    def test_hung_worker_trips_deadline_and_is_retried(self, tmp_path):
        clean = run_cells(_cells(2))
        faulted = [
            FaultableCell(
                inner=cell,
                marker_dir=str(tmp_path),
                fault=WORKER_STALL if i == 0 else None,
                stall_s=30.0,
            )
            for i, cell in enumerate(_cells(2))
        ]
        config = SupervisorConfig(deadline_s=1.5, backoff_base_s=0.0)
        with execution_context(ExecutionContext(jobs=2, supervisor=config)):
            values = run_cells(faulted)
        assert values == clean
        s = stats()
        assert s.timeouts >= 1
        assert s.failed == []

    def test_degrades_to_serial_when_pool_unrecoverable(self, tmp_path):
        clean = run_cells(_cells(2))
        faulted = [
            FaultableCell(
                inner=cell,
                marker_dir=str(tmp_path),
                fault=WORKER_KILL if i == 0 else None,
            )
            for i, cell in enumerate(_cells(2))
        ]
        config = SupervisorConfig(
            deadline_s=30.0, backoff_base_s=0.0, max_pool_rebuilds=0
        )
        with execution_context(ExecutionContext(jobs=2, supervisor=config)):
            values = run_cells(faulted)
        assert values == clean
        assert stats().serial_fallbacks == 1


class TestPermanentFailure:
    def test_failing_cell_raises_after_siblings_checkpoint(self, tmp_path):
        manifest = RunManifest(tmp_path)
        cells = [_cell(10.0), BoomCell(), _cell(20.0, index=1)]
        with pytest.raises(CellExecutionError) as exc:
            with execution_context(ExecutionContext(
                manifest=manifest, supervisor=QUICK,
            )):
                run_cells(cells)
        assert [label for label, _ in exc.value.failures] == ["boom[0]"]
        counts = manifest.status().counts()
        assert counts["done"] == 2
        assert counts["failed"] == 1
        s = stats()
        assert s.failed and s.failed[0][0] == "boom[0]"
        # Every attempt was charged: first run + retries.
        assert s.attempts >= QUICK.max_attempts

    def test_failure_is_bounded_by_max_attempts(self):
        config = SupervisorConfig(backoff_base_s=0.0, max_attempts=2)
        with pytest.raises(CellExecutionError):
            with execution_context(ExecutionContext(supervisor=config)):
                run_cells([BoomCell()])
        assert stats().attempts == 2

    def test_timed_out_cell_is_not_retried_inline(self, tmp_path):
        faulted = FaultableCell(
            inner=_cell(),
            marker_dir=str(tmp_path),
            fault=WORKER_STALL,
            stall_s=30.0,
        )
        config = SupervisorConfig(
            deadline_s=1.0, backoff_base_s=0.0, max_pool_rebuilds=0
        )
        # jobs must exceed 1 so the stall happens in a pool worker; with
        # rebuilds exhausted the cell must fail rather than hang the
        # supervising process inline.
        with pytest.raises(CellExecutionError) as exc:
            with execution_context(ExecutionContext(
                jobs=2, supervisor=config,
            )):
                run_cells([faulted, _cell(99.0, index=7)])
        assert any(
            "not retried inline" in error
            for _, error in exc.value.failures
        )


class TestKillAndResume:
    def test_interrupted_then_resumed_matches_uninterrupted(self, tmp_path):
        cells = _cells(4)
        with sanitize.sanitized():
            with execution_context(ExecutionContext(jobs=2, supervisor=QUICK)):
                baseline = run_cells(cells)
            baseline_counts = sanitize.aggregate_draw_counts()
            baseline_pops = sanitize.total_pops()
        # "Interrupted": only half the sweep completed before the kill.
        interrupted = RunManifest(tmp_path / "run")
        with sanitize.sanitized():
            with execution_context(ExecutionContext(
                jobs=2, manifest=interrupted, supervisor=QUICK,
            )):
                run_cells(cells[:2])
        assert interrupted.executed == 2
        # Resume the full sweep: restored + fresh must equal baseline,
        # including the sanitizer's per-stream accounting.
        resumed_manifest = RunManifest(tmp_path / "run")
        with sanitize.sanitized():
            with execution_context(ExecutionContext(
                jobs=2,
                manifest=resumed_manifest,
                resume=True,
                supervisor=QUICK,
            )):
                resumed = run_cells(cells)
            resumed_counts = sanitize.aggregate_draw_counts()
            resumed_pops = sanitize.total_pops()
        assert resumed == baseline
        assert resumed_manifest.restored == 2
        assert resumed_manifest.executed == 2
        assert resumed_counts == baseline_counts
        assert resumed_pops == baseline_pops

    def test_recovery_after_kill_with_manifest(self, tmp_path):
        cells = _cells(2)
        clean = run_cells(cells)
        manifest = RunManifest(tmp_path / "run")
        faulted = [
            FaultableCell(
                inner=cell,
                marker_dir=str(tmp_path / "markers"),
                fault=WORKER_KILL if i == 0 else None,
            )
            for i, cell in enumerate(cells)
        ]
        with execution_context(ExecutionContext(
            jobs=2, manifest=manifest, supervisor=QUICK,
        )):
            values = run_cells(faulted)
        assert values == clean
        assert manifest.status().complete
