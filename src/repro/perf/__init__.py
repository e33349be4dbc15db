"""Performance layer: parallel cell execution, result caching, crash safety.

Three cooperating parts, all resting on the determinism contract the
lint and sanitizer layers enforce (a cell's output is a pure function
of code, configuration and seed):

* :mod:`repro.perf.cells` / :mod:`repro.perf.executor` -- experiment
  sweeps factored into independent :class:`~repro.perf.cells.Cell`
  descriptors, fanned out over a process pool with results merged in
  cell order so parallel output is byte-identical to serial
  (``repro run --jobs N``), configured by one installed
  :class:`~repro.perf.executor.ExecutionContext`;
* :mod:`repro.perf.cache` -- a content-addressed on-disk cache keyed by
  (cell config, code fingerprint); warm re-runs are I/O-bound
  (``repro run --cache-dir D``, ``repro cache stats|clear``);
* :mod:`repro.perf.supervisor` / :mod:`repro.perf.manifest` /
  :mod:`repro.perf.integrity` -- crash-safe execution: supervised
  fan-out (deadlines, bounded retries, serial degradation), run
  manifests with checkpoint/resume (``--run-dir`` / ``--resume``,
  ``repro runs status|resume|gc``), and checksummed artifact storage.
  A run directory is a ledger over a :class:`~repro.perf.cache.ResultCache`,
  so the cache is the one store of every checkpointed cell.

The benchmark of record lives outside the package, in ``perfbench/``.
"""

from repro.perf.cache import (
    CacheStats,
    ResultCache,
    canonical_json,
    cell_key,
    code_fingerprint,
)
from repro.perf.cells import (
    Cell,
    MicrobenchCell,
    PredictionCell,
    ScenarioTrialCell,
    content_digest,
)
from repro.perf.executor import (
    CellOutcome,
    ExecutionContext,
    execution_context,
    resolve_jobs,
    run_cells,
)
from repro.perf.integrity import (
    ArtifactIntegrityWarning,
    IntegrityError,
    read_artifact,
    write_artifact,
)
from repro.perf.manifest import RunManifest, RunStatus
from repro.perf.supervisor import (
    CellExecutionError,
    SupervisionStats,
    SupervisorConfig,
    run_supervised,
)

__all__ = [
    "ArtifactIntegrityWarning",
    "CacheStats",
    "Cell",
    "CellExecutionError",
    "CellOutcome",
    "ExecutionContext",
    "IntegrityError",
    "MicrobenchCell",
    "PredictionCell",
    "ResultCache",
    "RunManifest",
    "RunStatus",
    "ScenarioTrialCell",
    "SupervisionStats",
    "SupervisorConfig",
    "canonical_json",
    "cell_key",
    "code_fingerprint",
    "content_digest",
    "execution_context",
    "read_artifact",
    "resolve_jobs",
    "run_cells",
    "run_supervised",
    "write_artifact",
]
