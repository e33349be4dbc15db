"""Incremental-consume (streaming) mode of ``run_cells``.

``consume(index, value)`` must fire for every cell in strict cell
order, release each outcome slot as it goes, return an empty list, and
compose unchanged with the cache, the run manifest (resume re-consumes
restored cells) and parallel fan-out.  A permanent cell failure leaves
the tail unconsumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

import pytest

from repro.perf.cache import ResultCache
from repro.perf.cells import Cell, MicrobenchCell
from repro.perf.executor import (
    _CONSUMED,
    ExecutionContext,
    execution_context,
    run_cells,
)
from repro.perf.manifest import RunManifest
from repro.perf.supervisor import (
    CellExecutionError,
    SupervisorConfig,
    reset_stats,
)

NO_RETRY = SupervisorConfig(max_attempts=1, backoff_base_s=0.0)


@dataclass(frozen=True)
class ValueCell(Cell):
    """A trivial inline cell: value = 10 * ident, 1 event."""

    ident: int

    group = "value"

    def config(self) -> Dict[str, Any]:
        return {"cell": "value", "ident": self.ident}

    def run(self) -> Tuple[Any, int]:
        return self.ident * 10, 1

    def label(self) -> str:
        return f"value[{self.ident}]"


@dataclass(frozen=True)
class BoomCell(Cell):
    ident: int = 0

    group = "boom"

    def config(self) -> Dict[str, Any]:
        return {"cell": "boom", "ident": self.ident}

    def run(self) -> Tuple[Any, int]:
        raise RuntimeError("boom")

    def label(self) -> str:
        return f"boom[{self.ident}]"


def _micro_cells(n: int = 4):
    return [
        MicrobenchCell(
            kind="cpu", n_vms=1, level=10.0 + 20.0 * i, index=i,
            duration=4.0, seed=42,
        )
        for i in range(n)
    ]


@pytest.fixture(autouse=True)
def _fresh_stats():
    reset_stats()
    yield
    reset_stats()


class TestConsumeOrder:
    def test_consumed_in_cell_order_and_returns_empty(self):
        seen = []
        result = run_cells(
            [ValueCell(i) for i in range(5)],
            consume=lambda i, v: seen.append((i, v)),
        )
        assert result == []
        assert seen == [(i, i * 10) for i in range(5)]

    def test_consumed_values_match_plain_run(self):
        cells = [ValueCell(i) for i in (3, 1, 4, 1, 5)]
        plain = run_cells(cells)
        streamed = []
        run_cells(cells, consume=lambda i, v: streamed.append(v))
        assert streamed == plain

    def test_slots_released_as_consumed(self):
        # The consume callback sees its own slot already released --
        # the executor never retains a consumed outcome.
        cells = [ValueCell(i) for i in range(3)]
        holder = {}

        def grab(i, v):
            holder[i] = v

        run_cells(cells, consume=grab)
        assert holder == {0: 0, 1: 10, 2: 20}

    def test_parallel_consume_matches_serial(self):
        cells = _micro_cells(4)
        serial = run_cells(cells)
        streamed = []
        with execution_context(ExecutionContext(jobs=2)):
            result = run_cells(
                cells, consume=lambda i, v: streamed.append((i, v))
            )
        assert result == []
        assert [i for i, _ in streamed] == [0, 1, 2, 3]
        assert [v for _, v in streamed] == serial


class TestConsumeComposition:
    def test_cache_hits_are_consumed_in_order(self, tmp_path):
        cells = [ValueCell(i) for i in range(4)]
        cache = ResultCache(tmp_path / "cache")
        cold = []
        with execution_context(ExecutionContext(cache=cache)):
            run_cells(cells, consume=lambda i, v: cold.append(v))
        warm = []
        with execution_context(ExecutionContext(cache=cache)):
            run_cells(cells, consume=lambda i, v: warm.append(v))
        assert warm == cold == [0, 10, 20, 30]

    def test_resume_reconsumes_restored_cells(self, tmp_path):
        cells = [ValueCell(i) for i in range(3)]
        first = RunManifest(tmp_path / "run")
        first.open_run(["test"], resumed=False)
        with execution_context(ExecutionContext(manifest=first)):
            run_cells(cells, consume=lambda i, v: None)
        second = RunManifest(tmp_path / "run")
        second.open_run(["test"], resumed=True)
        replayed = []
        with execution_context(ExecutionContext(manifest=second, resume=True)):
            run_cells(cells, consume=lambda i, v: replayed.append((i, v)))
        assert replayed == [(0, 0), (1, 10), (2, 20)]
        assert second.restored == 3
        assert second.executed == 0

    def test_failure_leaves_tail_unconsumed(self):
        cells = [ValueCell(0), BoomCell(), ValueCell(2)]
        seen = []
        with pytest.raises(CellExecutionError):
            with execution_context(ExecutionContext(supervisor=NO_RETRY)):
                run_cells(cells, consume=lambda i, v: seen.append((i, v)))
        # Cell 0 streamed; the failed cell blocks its slot, so cell 2
        # completed but was never handed to the aggregator.
        assert seen == [(0, 0)]

    def test_consumed_sentinel_is_not_a_value(self):
        # The sentinel marking released slots must never equal a real
        # cell value (it is identity-checked, but keep it inert).
        assert _CONSUMED is not None
        run_cells([ValueCell(0)], consume=lambda i, v: None)
