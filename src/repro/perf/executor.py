"""Parallel cell executor: deterministic fan-out over processes.

``run_cells`` executes a list of :class:`~repro.perf.cells.Cell`
descriptors and returns their values **in cell order, never completion
order** -- with every cell seeded independently (a property the serial
loops already had), parallel output is byte-identical to serial by
construction.  ``jobs=1`` runs inline in the calling process (the
serial path, zero overhead); ``jobs>1`` fans out over the **warm**
process pool of :mod:`repro.perf.pool` -- spun up before the cache
probe so worker start-up overlaps probing, kept alive across sweep
phases, fed runs of ``--chunk`` cells per task (deterministic
cost-model default) with the shared sanitize/obs context pre-pickled
once per pool.

Sanitizer accounting survives the fan-out: each worker runs its cell
under the parent's sanitize default, harvests that cell's per-stream
RNG draw counts and event-pop tally, and ships them home, where they
are merged into the parent's collector -- so ``repro run --sanitize
--jobs 4`` reports exactly the counts of a serial sanitized run.

Execution is *supervised*: pool fan-out routes through
:mod:`repro.perf.supervisor` (per-cell deadlines, bounded retries with
deterministic backoff, crashed-worker recovery, serial degradation),
and -- when a :class:`~repro.perf.manifest.RunManifest` is installed
(``--run-dir``) -- every planned cell is recorded to an append-only
ledger and every completed cell is checkpointed, so an interrupted run
resumed with ``--resume`` re-executes only what is missing.  Cells that
exhaust their attempts raise
:class:`~repro.perf.supervisor.CellExecutionError` *after* every other
cell has completed and been checkpointed, so a partial failure never
discards sibling work.

Everything :func:`run_cells` needs besides the cells -- worker count,
chunk size, result cache, run manifest, resume flag, supervisor knobs
(``--jobs``, ``--chunk``, ``--cache-dir``, ``--run-dir``/``--resume``,
``--cell-*``) -- lives in one frozen :class:`ExecutionContext`.  The
CLI (or a test, or a fault drill) installs a whole context with
:func:`execution_context` for the span of a dispatch, so fan-out is
configured without threading parameters through every experiment
signature, and there is exactly one way to set each value.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro.obs import runtime as obs
from repro.perf import pool as warmpool
from repro.perf.cache import ResultCache
from repro.perf.cells import Cell
from repro.perf.manifest import RunManifest
from repro.perf.supervisor import (
    CellExecutionError,
    SupervisorConfig,
    run_supervised,
)
from repro.sim import sanitize


@dataclass
class CellOutcome:
    """Everything one executed cell produced.

    ``draw_counts`` / ``pops`` carry the sanitizer accounting of the
    cell's own simulators (empty when the cell ran unsanitized); they
    let the parent process report aggregate counts identical to a
    serial run, and let a cache hit replay the accounting of the run
    that produced it.  ``obs`` travels the same way: when observability
    is enabled the cell runs under a scoped collector and ships its
    metrics/spans snapshot home for the parent to merge (``None`` when
    observability was off).
    """

    value: Any
    events: int = 0
    draw_counts: Dict[str, int] = field(default_factory=dict)
    pops: int = 0
    obs: Optional[Dict[str, Any]] = None


@dataclass(frozen=True)
class ExecutionContext:
    """How :func:`run_cells` executes, installed by :func:`execution_context`.

    ``jobs`` is the worker count (``1`` runs inline, ``<= 0`` uses the
    machine's CPU count); ``chunk`` the cells per pool task (``0`` picks
    the cost model of :func:`resolve_chunk`); ``cache`` an optional
    :class:`ResultCache` (``--cache-dir``); ``manifest`` an optional
    :class:`~repro.perf.manifest.RunManifest` (``--run-dir``) in which
    every cell is planned and every completed cell checkpointed;
    ``resume`` restores cells with a verified checkpoint in
    ``manifest`` instead of executing them; ``supervisor`` holds the
    deadline/retry knobs.
    """

    jobs: int = 1
    chunk: int = 0
    cache: Optional[ResultCache] = None
    manifest: Optional[RunManifest] = None
    resume: bool = False
    supervisor: SupervisorConfig = SupervisorConfig()


_context = ExecutionContext()


@contextmanager
def execution_context(context: ExecutionContext) -> Iterator[ExecutionContext]:
    """Install ``context`` for the block, then restore the previous one.

    The whole context is swapped: a field left at its default means
    that default (no cache, no manifest, ...), never "inherit the
    enclosing context's value".
    """
    global _context
    previous = _context
    _context = context
    try:
        yield context
    finally:
        _context = previous


def resolve_jobs(jobs: int) -> int:
    """Normalize a ``--jobs`` value: ``<= 0`` -> the machine's CPUs."""
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return jobs


def resolve_chunk(chunk: int, n_cells: int, jobs: int) -> int:
    """Normalize ``--chunk``: explicit ``N`` wins, ``0`` -> cost model.

    The cost model targets roughly four dispatch waves per worker:
    large enough to amortize per-task submit/pickle/IPC overhead,
    small enough that the tail of a sweep still load-balances.  A
    fan-out that does not fill one wave per worker runs unchunked.
    """
    if chunk > 0:
        return int(chunk)
    if jobs <= 1 or n_cells <= jobs:
        return 1
    return max(1, -(-n_cells // (jobs * 4)))


# --------------------------------------------------------------------------
# Execution.
# --------------------------------------------------------------------------


def _sanitized_execute(cell: Cell) -> CellOutcome:
    """Run one cell, harvesting its sanitizer accounting as a delta.

    Works in both the inline path and inside a pool worker: the delta
    of the process-wide collector across the run is exactly this cell's
    accounting, because cells execute one at a time per process.
    """
    before_counts = sanitize.aggregate_draw_counts()
    before_pops = sanitize.total_pops()
    value, events = cell.run()
    after_counts = sanitize.aggregate_draw_counts()
    draw_counts = {
        name: count - before_counts.get(name, 0)
        for name, count in after_counts.items()
        if count - before_counts.get(name, 0)
    }
    return CellOutcome(
        value=value,
        events=events,
        draw_counts=draw_counts,
        pops=sanitize.total_pops() - before_pops,
    )


def _plain_execute(cell: Cell) -> CellOutcome:
    """Run one cell without observability scoping."""
    if sanitize.default_enabled():
        return _sanitized_execute(cell)
    value, events = cell.run()
    return CellOutcome(value=value, events=events)


def _execute_cell(
    cell: Cell, collect: Optional[bool] = None
) -> CellOutcome:
    """Run one cell in the current process.

    When the run collects, the cell runs under its own scoped collector
    -- in a pool worker *and* inline -- so every outcome carries exactly
    its cell's snapshot and the parent merges them identically on both
    paths (and on cache/checkpoint replays).  A pool worker passes the
    obs flag of the context its pool ships; an inline cell collects
    whenever a collector is installed.
    """
    if collect is None:
        collect = obs.installed() is not None
    if not collect:
        return _plain_execute(cell)
    with obs.collecting() as child, obs.span(
        "executor.cell", "executor", cell=cell.label(), group=cell.group
    ):
        outcome = _plain_execute(cell)
    outcome.obs = child.snapshot()
    return outcome


def _pool_worker(
    cell: Cell, sanitize_enabled: bool, obs_enabled: bool = False
) -> CellOutcome:
    """Top-level worker entry point (must be picklable by name)."""
    previous = sanitize.default_enabled()
    sanitize.set_default(sanitize_enabled)
    try:
        return _execute_cell(cell, obs_enabled)
    finally:
        sanitize.set_default(previous)


def _chunk_worker(cells: Sequence[Cell]) -> List[CellOutcome]:
    """Pool entry point for one chunk of cells (picklable by name).

    The sanitize/obs context comes from the warm pool's initializer --
    shipped pre-pickled once per pool, never per task; outside a warm
    pool the worker falls back to its own (fork-inherited) defaults.
    Cells run sequentially, so the per-cell accounting deltas of
    :func:`_sanitized_execute` stay exact.
    """
    context = warmpool.worker_context()
    if context is None:
        context = (sanitize.default_enabled(), obs.installed() is not None)
    return [_pool_worker(cell, *context) for cell in cells]


def _merge_accounting(outcome: CellOutcome) -> None:
    """Fold a remote/cached cell's sanitizer accounting into this process.

    Registers a synthetic hook set carrying the cell's draw counts and
    pop tally, so ``aggregate_draw_counts`` / ``total_pops`` report the
    same totals a serial in-process run would have.
    """
    if not sanitize.default_enabled():
        return
    if not outcome.draw_counts and not outcome.pops:
        return
    hooks = sanitize.SanitizerHooks()
    hooks.draw_counts.update(outcome.draw_counts)
    hooks.pops = outcome.pops
    sanitize.register_hooks(hooks)


def _merge_obs(outcome: CellOutcome) -> None:
    """Fold a cell's observability snapshot into the parent collector.

    Cache hits and checkpoint restores replay the snapshot of the run
    that produced them, exactly as sanitizer accounting replays.
    """
    collector = obs.installed()
    snap = getattr(outcome, "obs", None)
    if collector is None or not snap:
        return
    collector.merge_snapshot(snap)


#: Marks an outcome slot whose value was handed to ``consume`` and
#: released -- distinct from ``None`` (still missing).
_CONSUMED = object()


def run_cells(
    cells: Sequence[Cell],
    *,
    phase: Optional[str] = None,
    consume: Optional[Callable[[int, Any], None]] = None,
) -> List[Any]:
    """Execute ``cells`` and return their values in input order.

    How they execute -- workers, chunking, cache, manifest, resume,
    supervision -- comes from the installed :class:`ExecutionContext`.
    Chunking only batches the transport: outcomes still complete per
    cell, in cell order.  With a manifest, every cell is planned in the
    ledger and every completed cell is checkpointed before this
    function returns or raises.

    Parameters
    ----------
    cells:
        The work items.  Each must be independently executable -- no
        cell may observe another's side effects.
    phase:
        Label of the executor's obs counters and span; defaults to the
        first cell's ``group``.
    consume:
        Incremental-consume (streaming) mode: ``consume(index, value)``
        is invoked for every cell **in strict cell order** as soon as
        the ordered prefix completes, and the outcome's slot is
        released immediately afterwards -- the fan-out never holds more
        than the out-of-order completion window in memory, which is
        what lets a fleet sweep aggregate thousands of cell summaries
        with bounded RSS.  Checkpointing, caching and sanitizer/obs
        accounting are unchanged (a resumed run re-consumes restored
        cells, so aggregators rebuild exactly).  The return value is
        then an empty list.  If a cell fails permanently, cells after
        it are *not* consumed (their order slot never fills) and
        :class:`CellExecutionError` is raised as usual.

    Raises
    ------
    CellExecutionError
        When one or more cells fail permanently despite retries.  All
        surviving cells have completed (and been checkpointed /
        cached) first, so a subsequent ``--resume`` run re-executes
        only the failed cells.
    """
    if not cells:
        return []
    ctx = _context
    jobs = resolve_jobs(ctx.jobs)
    cache = ctx.cache
    manifest = ctx.manifest
    phase_name = phase or cells[0].group

    context = (sanitize.default_enabled(), obs.installed() is not None)
    if jobs > 1 and len(cells) > 1:
        # Spin the warm pool up now so worker start-up overlaps the
        # cache/checkpoint probe below (probe first, submit only the
        # misses into the already-running pool).
        warmpool.prestart(jobs, context)

    outcomes: List[Optional[CellOutcome]] = [None] * len(cells)
    hits = 0
    if manifest is not None:
        manifest.plan(cells)
        if ctx.resume:
            for i, cell in enumerate(cells):
                restored = manifest.load(cell)
                if restored is not None:
                    outcomes[i] = restored
                    _merge_accounting(restored)
                    _merge_obs(restored)
    if cache is not None:
        for i, cell in enumerate(cells):
            if outcomes[i] is not None:
                continue
            cached = cache.get(cell)
            if cached is not None:
                outcomes[i] = cached
                _merge_accounting(cached)
                _merge_obs(cached)
                hits += 1
    missing = [i for i, out in enumerate(outcomes) if out is None]
    attempts: Dict[int, int] = {}
    if cache is not None:
        obs.inc("repro_executor_cache_hits_total", hits, phase=phase_name)
        obs.inc(
            "repro_executor_cache_misses_total", len(missing),
            phase=phase_name,
        )
    obs.inc("repro_executor_cells_total", len(cells), phase=phase_name)

    consumed_through = 0

    def drain() -> None:
        """Hand the completed ordered prefix to ``consume``, freeing
        each outcome slot as it goes (streaming mode only)."""
        nonlocal consumed_through
        while consumed_through < len(cells):
            outcome = outcomes[consumed_through]
            if outcome is None:
                return
            consume(consumed_through, outcome.value)
            outcomes[consumed_through] = _CONSUMED  # type: ignore[call-overload]
            consumed_through += 1

    def complete(i: int, outcome: CellOutcome, from_pool: bool) -> None:
        outcomes[i] = outcome
        if from_pool:
            _merge_accounting(outcome)
        _merge_obs(outcome)
        if manifest is not None:
            # The supervisor charges the attempt before running it, so
            # the live count already includes the one that succeeded.
            manifest.record_done(
                cells[i], outcome, attempts=attempts.get(i, 0) or 1
            )
        if cache is not None and (
            manifest is None or manifest.store is not cache
        ):
            cache.put(cells[i], outcome)
        if consume is not None:
            drain()

    if consume is not None:
        # Cache/checkpoint hits may already form a consumable prefix.
        drain()

    use_pool = jobs > 1 and len(missing) > 1
    with obs.span(
        "executor.run_cells", "executor",
        phase=phase_name, cells=len(cells), missing=len(missing),
    ):
        failures = run_supervised(
            [(i, cells[i]) for i in missing],
            jobs=jobs if len(missing) > 1 else 1,
            worker=_pool_worker,
            worker_args=context,
            execute_inline=_execute_cell,
            complete=complete,
            config=ctx.supervisor,
            attempts_out=attempts,
            chunk=resolve_chunk(ctx.chunk, len(missing), jobs),
            chunk_worker=_chunk_worker,
            pool_factory=(
                (lambda workers: warmpool.get_pool(jobs, context))
                if use_pool else None
            ),
            pool_discard=warmpool.discard if use_pool else None,
        )

    if manifest is not None:
        for i, cell, error in failures:
            manifest.record_failed(
                cell, attempts=attempts.get(i, 0), error=error
            )
    if failures:
        raise CellExecutionError(
            [(cell.label(), error) for _, cell, error in failures]
        )
    if consume is not None:
        return []
    return [o.value for o in outcomes]  # type: ignore[union-attr]
