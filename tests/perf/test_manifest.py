"""Run manifests: ledger replay, checkpoint/resume, gc, crash tolerance."""

from __future__ import annotations

import pytest

from repro.perf.cells import MicrobenchCell
from repro.perf.executor import (
    CellOutcome,
    ExecutionContext,
    execution_context,
    run_cells,
)
from repro.perf.integrity import ArtifactIntegrityWarning
from repro.perf.manifest import (
    STATUS_DONE,
    STATUS_FAILED,
    STATUS_PENDING,
    RunManifest,
)


def _cell(level: float = 25.0, **overrides) -> MicrobenchCell:
    kwargs = dict(
        kind="cpu", n_vms=1, level=level, index=0, duration=4.0, seed=42
    )
    kwargs.update(overrides)
    return MicrobenchCell(**kwargs)


class TestLedger:
    def test_plan_records_pending_once(self, tmp_path):
        manifest = RunManifest(tmp_path)
        cells = [_cell(10.0), _cell(20.0, index=1)]
        manifest.plan(cells)
        manifest.plan(cells)  # replanning must not duplicate
        status = manifest.status()
        assert len(status.cells) == 2
        assert status.counts()[STATUS_PENDING] == 2
        assert not status.complete

    def test_done_and_failed_transitions(self, tmp_path):
        manifest = RunManifest(tmp_path)
        good, bad = _cell(10.0), _cell(20.0, index=1)
        manifest.plan([good, bad])
        manifest.record_done(good, CellOutcome(value=1.0), attempts=1)
        manifest.record_failed(bad, attempts=3, error="boom")
        status = manifest.status()
        counts = status.counts()
        assert counts[STATUS_DONE] == 1
        assert counts[STATUS_FAILED] == 1
        assert not status.complete
        rendered = status.render()
        assert "resumable" in rendered
        assert bad.label() in rendered

    def test_open_run_records_command(self, tmp_path):
        manifest = RunManifest(tmp_path)
        manifest.open_run(["run", "fig5", "--jobs", "2"], resumed=False)
        manifest.open_run(["run", "fig5", "--jobs", "2"], resumed=True)
        status = manifest.status()
        assert status.runs == 2
        assert status.resumed_runs == 1
        assert status.command == ["run", "fig5", "--jobs", "2"]

    def test_truncated_tail_line_is_tolerated(self, tmp_path):
        manifest = RunManifest(tmp_path)
        manifest.plan([_cell()])
        with open(manifest.path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "done", "key"')  # killed mid-append
        status = RunManifest(tmp_path).status()
        assert status.skipped_lines == 1
        assert len(status.cells) == 1


class TestCheckpointResume:
    def test_load_round_trips_outcome(self, tmp_path):
        manifest = RunManifest(tmp_path)
        cell = _cell()
        outcome = CellOutcome(
            value={"v": 2.5}, events=7, draw_counts={"s": 3}, pops=11
        )
        manifest.plan([cell])
        manifest.record_done(cell, outcome, attempts=2)
        fresh = RunManifest(tmp_path)
        restored = fresh.load(cell)
        assert restored.value == {"v": 2.5}
        assert restored.events == 7
        assert restored.draw_counts == {"s": 3}
        assert restored.pops == 11
        assert fresh.restored == 1

    def test_load_returns_none_for_pending(self, tmp_path):
        manifest = RunManifest(tmp_path)
        manifest.plan([_cell()])
        assert manifest.load(_cell()) is None

    def test_corrupt_checkpoint_demotes_to_pending(self, tmp_path):
        manifest = RunManifest(tmp_path)
        cell = _cell()
        manifest.plan([cell])
        manifest.record_done(cell, CellOutcome(value=1.0), attempts=1)
        ckpt = manifest.store.path(cell)
        ckpt.write_bytes(ckpt.read_bytes()[:-3])
        fresh = RunManifest(tmp_path)
        with pytest.warns(ArtifactIntegrityWarning):
            assert fresh.load(cell) is None
        assert fresh.restored == 0

    def test_swapped_checkpoint_fails_ledger_digest(self, tmp_path):
        # Internally consistent artifact, but not the one the ledger
        # recorded: the whole-file digest catches the swap.
        manifest = RunManifest(tmp_path)
        a, b = _cell(10.0), _cell(20.0, index=1)
        manifest.plan([a, b])
        manifest.record_done(a, CellOutcome(value=1.0), attempts=1)
        manifest.record_done(b, CellOutcome(value=2.0), attempts=1)
        path_a = manifest.store.path(a)
        path_b = manifest.store.path(b)
        path_a.write_bytes(path_b.read_bytes())
        fresh = RunManifest(tmp_path)
        with pytest.warns(ArtifactIntegrityWarning, match="checksum"):
            assert fresh.load(a) is None

    def test_changed_code_matches_no_keys(self, tmp_path):
        old = RunManifest(tmp_path, fingerprint="a" * 64)
        cell = _cell()
        old.plan([cell])
        old.record_done(cell, CellOutcome(value=1.0), attempts=1)
        new = RunManifest(tmp_path, fingerprint="b" * 64)
        assert new.load(cell) is None

    def test_run_cells_resumes_from_checkpoints(self, tmp_path):
        cells = [_cell(10.0), _cell(20.0, index=1)]
        first = RunManifest(tmp_path)
        with execution_context(ExecutionContext(manifest=first, resume=False)):
            baseline = run_cells(cells)
        assert first.executed == 2
        second = RunManifest(tmp_path)
        with execution_context(ExecutionContext(manifest=second, resume=True)):
            resumed = run_cells(cells)
        assert resumed == baseline
        assert second.restored == 2
        assert second.executed == 0


class TestGc:
    def test_gc_removes_orphans_keeps_done(self, tmp_path):
        manifest = RunManifest(tmp_path)
        cell = _cell()
        manifest.plan([cell])
        manifest.record_done(cell, CellOutcome(value=1.0), attempts=1)
        orphan = manifest.store.path(_cell(99.0, index=9))
        orphan.write_bytes(b"junk")
        removed = RunManifest(tmp_path).gc()
        assert removed["orphaned"] == 1
        assert removed["stale"] == 0
        assert not orphan.exists()
        assert manifest.store.path(cell).exists()

    def test_gc_tolerates_concurrently_vanishing_file(
        self, tmp_path, monkeypatch
    ):
        # A concurrent resume/gc can unlink a checkpoint between the
        # directory listing and our stat; gc must skip it and count
        # bytes only for files this sweep actually removed.
        import os
        import pathlib

        manifest = RunManifest(tmp_path)
        manifest.plan([_cell()])
        vanishing = manifest.store.path(_cell(98.0, index=8))
        vanishing.parent.mkdir(parents=True, exist_ok=True)
        vanishing.write_bytes(b"gone")
        survivor = manifest.store.path(_cell(99.0, index=9))
        survivor.write_bytes(b"junk!")
        real_stat = pathlib.Path.stat
        raced = {"done": False}

        def racing_stat(self, *args, **kwargs):
            if self.name == vanishing.name and not raced["done"]:
                raced["done"] = True
                os.unlink(self)  # the concurrent sweep wins the race
            return real_stat(self, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "stat", racing_stat)
        removed = RunManifest(tmp_path).gc()
        assert raced["done"]
        assert removed["orphaned"] == 1
        assert removed["bytes"] == len(b"junk!")
        assert not survivor.exists()

    def test_gc_drops_everything_after_code_change(self, tmp_path):
        old = RunManifest(tmp_path, fingerprint="a" * 64)
        cell = _cell()
        old.open_run(["run", "fig5"], resumed=False)
        old.plan([cell])
        old.record_done(cell, CellOutcome(value=1.0), attempts=1)
        new = RunManifest(tmp_path, fingerprint="b" * 64)
        removed = new.gc()
        assert removed["stale"] == 1
        assert not old.store.path(cell).exists()
        assert list(tmp_path.rglob("*.pkl")) == []
