"""Chunked dispatch and the warm worker pool.

``--chunk N`` batches cells into pool tasks and the warm pool keeps
workers alive across sweep phases; neither is allowed to change a
single output byte.  These tests pin the chunk cost model, double-run
byte-identity under chunked parallel execution, and warm-pool reuse /
rebuild / discard semantics.
"""

from __future__ import annotations

import pytest

from repro.experiments import runner
from repro.perf import pool as warmpool
from repro.perf.cells import MicrobenchCell
from repro.perf.executor import (
    ExecutionContext,
    execution_context,
    resolve_chunk,
    run_cells,
)
from repro.sim import sanitize


def _fig2a_render(jobs: int, chunk: int = 0) -> str:
    with execution_context(ExecutionContext(jobs=jobs, chunk=chunk)):
        return runner.run("fig2a", fast=True).render()


@pytest.fixture(autouse=True)
def _clean_pool():
    yield
    warmpool.shutdown_pool()


class TestResolveChunk:
    def test_explicit_chunk_wins(self):
        assert resolve_chunk(5, 40, 4) == 5
        assert resolve_chunk(1, 1000, 8) == 1

    def test_auto_targets_four_waves_per_worker(self):
        # 40 cells / (4 jobs * 4 waves) = 2.5 -> ceil -> 3
        assert resolve_chunk(0, 40, 4) == 3
        assert resolve_chunk(0, 160, 4) == 10

    def test_auto_degenerates_to_singletons(self):
        assert resolve_chunk(0, 40, 1) == 1
        assert resolve_chunk(0, 3, 4) == 1
        assert resolve_chunk(0, 0, 4) == 1

    def test_default_chunk_round_trips(self):
        # The default context's chunk of 0 selects the cost model.
        assert resolve_chunk(ExecutionContext().chunk, 40, 4) == 3
        with execution_context(ExecutionContext(chunk=7)) as ctx:
            assert resolve_chunk(ctx.chunk, 100, 4) == 7


class TestChunkedDeterminism:
    def test_chunked_double_run_byte_identical(self):
        serial = _fig2a_render(1)
        first = _fig2a_render(4, chunk=2)
        second = _fig2a_render(4, chunk=2)
        assert first == serial
        assert second == serial

    def test_chunked_sanitizer_accounting_matches_serial(self):
        cells = [
            MicrobenchCell(
                kind="bw", n_vms=1, level=level, index=i,
                duration=6.0, seed=42,
            )
            for i, level in enumerate((16.0, 32.0, 64.0, 96.0))
        ]
        with sanitize.sanitized():
            serial_values = run_cells(cells)
            serial_counts = sanitize.aggregate_draw_counts()
            serial_pops = sanitize.total_pops()
        with sanitize.sanitized():
            with execution_context(ExecutionContext(jobs=2, chunk=2)):
                chunked_values = run_cells(cells)
            chunked_counts = sanitize.aggregate_draw_counts()
            chunked_pops = sanitize.total_pops()
        assert chunked_values == serial_values
        assert serial_counts
        assert chunked_counts == serial_counts
        assert chunked_pops == serial_pops

    def test_oversized_chunk_collapses_to_one_task(self):
        cells = [
            MicrobenchCell(
                kind="cpu", n_vms=1, level=level, index=i,
                duration=2.0, seed=42,
            )
            for i, level in enumerate((10.0, 40.0, 70.0))
        ]
        serial = run_cells(cells)
        with execution_context(ExecutionContext(jobs=2, chunk=99)):
            assert run_cells(cells) == serial


class TestWarmPool:
    def test_pool_reused_for_identical_signature(self):
        context = (False, False)
        first = warmpool.get_pool(2, context)
        second = warmpool.get_pool(2, context)
        assert second is first

    def test_pool_rebuilt_when_context_changes(self):
        first = warmpool.get_pool(2, (False, False))
        second = warmpool.get_pool(2, (True, False))
        assert second is not first

    def test_pool_rebuilt_when_worker_count_changes(self):
        first = warmpool.get_pool(2, (False, False))
        second = warmpool.get_pool(3, (False, False))
        assert second is not first

    def test_discard_forces_fresh_pool(self):
        first = warmpool.get_pool(2, (False, False))
        warmpool.discard(first)
        second = warmpool.get_pool(2, (False, False))
        assert second is not first

    def test_discard_ignores_stale_handle(self):
        first = warmpool.get_pool(2, (False, False))
        current = warmpool.get_pool(2, (False, False))
        warmpool.discard(object())  # not the live pool: must be a no-op
        assert warmpool.get_pool(2, (False, False)) is current
        assert current is first

    def test_shutdown_clears_handle(self):
        first = warmpool.get_pool(2, (False, False))
        warmpool.shutdown_pool()
        second = warmpool.get_pool(2, (False, False))
        assert second is not first

    def test_context_blob_is_deterministic(self):
        blob = warmpool.context_blob((False, True))
        assert blob == warmpool.context_blob((False, True))
        assert blob != warmpool.context_blob((True, True))

    def test_prestart_is_best_effort_and_reuses(self):
        pool = warmpool.prestart(2, (False, False))
        assert warmpool.get_pool(2, (False, False)) is pool
