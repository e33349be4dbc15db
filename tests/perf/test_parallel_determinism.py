"""Parallel execution must be byte-identical to serial.

The acceptance contract of the perf layer: ``--jobs N`` changes wall
time only.  Rendered artifacts, series values and even the sanitizer's
per-stream RNG draw accounting must match a serial run exactly.
"""

from __future__ import annotations

import pytest

from repro.experiments import runner
from repro.perf.cache import ResultCache
from repro.perf.cells import MicrobenchCell
from repro.perf.executor import (
    ExecutionContext,
    execution_context,
    resolve_jobs,
    run_cells,
)
from repro.sim import sanitize


def _fig2a_render(jobs: int) -> str:
    with execution_context(ExecutionContext(jobs=jobs)):
        return runner.run("fig2a", fast=True).render()


class TestParallelDeterminism:
    def test_fig2a_parallel_render_byte_identical(self):
        serial = _fig2a_render(1)
        parallel = _fig2a_render(4)
        assert parallel == serial

    def test_parallel_sanitizer_accounting_matches_serial(self):
        cells = [
            MicrobenchCell(
                kind="bw", n_vms=1, level=level, index=i,
                duration=6.0, seed=42,
            )
            for i, level in enumerate((16.0, 64.0))
        ]
        with sanitize.sanitized():
            serial_values = run_cells(cells)
            serial_counts = sanitize.aggregate_draw_counts()
            serial_pops = sanitize.total_pops()
        with sanitize.sanitized():
            with execution_context(ExecutionContext(jobs=2)):
                parallel_values = run_cells(cells)
            parallel_counts = sanitize.aggregate_draw_counts()
            parallel_pops = sanitize.total_pops()
        assert parallel_values == serial_values
        assert serial_counts  # the sweep draws from named streams
        assert parallel_counts == serial_counts
        assert parallel_pops == serial_pops

    def test_results_merge_in_cell_order_not_completion_order(self):
        # Cells with very different workloads: the heavy cell is
        # submitted first and finishes last; its result must still come
        # back first.
        cells = [
            MicrobenchCell(
                kind="cpu", n_vms=2, level=80.0, index=0,
                duration=20.0, seed=42,
            ),
            MicrobenchCell(
                kind="cpu", n_vms=1, level=10.0, index=1,
                duration=2.0, seed=42,
            ),
        ]
        serial = run_cells(cells)
        with execution_context(ExecutionContext(jobs=2)):
            parallel = run_cells(cells)
        assert parallel == serial


class TestJobsPlumbing:
    def test_resolve_jobs_default_and_cpu_count(self):
        assert resolve_jobs(ExecutionContext().jobs) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) >= 1

    def test_nested_uncached_context_restores_outer(self, tmp_path):
        cells = [
            MicrobenchCell(
                kind="cpu", n_vms=1, level=10.0, index=0,
                duration=2.0, seed=42,
            )
        ]
        cache = ResultCache(tmp_path)
        with execution_context(ExecutionContext(cache=cache)):
            first = run_cells(cells)
            assert (cache.hits, cache.misses) == (0, 1)
            with pytest.raises(RuntimeError, match="inner"):
                # cache=None installs "no cache": the cached cell is
                # recomputed without touching the outer cache.
                with execution_context(ExecutionContext(cache=None)):
                    assert run_cells(cells) == first
                    assert (cache.hits, cache.misses) == (0, 1)
                    raise RuntimeError("inner")
            # The exception restored the outer context and its cache.
            assert run_cells(cells) == first
            assert (cache.hits, cache.misses) == (1, 1)

    def test_empty_cell_list(self):
        assert run_cells([]) == []


class TestCliJobsFlag:
    def test_run_accepts_jobs(self, capsys):
        from repro.cli import main

        assert main(["run", "table1", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "All shape checks passed" in out
