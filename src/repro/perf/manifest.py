"""Run manifests: append-only cell ledgers with checkpoint/resume.

A *run directory* (``repro run ... --run-dir DIR``) makes an experiment
run crash-safe.  It holds

* ``manifest.jsonl`` -- an append-only ledger: one ``run`` record per
  invocation (code fingerprint, the CLI command, whether it resumed),
  one ``plan`` record per cell the run intends to execute, and one
  ``done``/``failed`` record per completed attempt sequence; and
* ``cells/`` -- a :class:`~repro.perf.cache.ResultCache` holding one
  checkpoint per completed cell at ``cells/<fingerprint[:16]>/<key>.pkl``
  (the full :class:`~repro.perf.executor.CellOutcome`, sanitizer
  accounting included).  When the run also has a ``--cache-dir``, that
  cache is the store instead and ``cells/`` stays empty, so each
  completed cell is written once.

Because the ledger is append-only and every checkpoint write is atomic,
a SIGKILL at any instant leaves the directory readable: the loader
ignores a truncated final line, and a resumed run
(``--resume DIR`` / ``repro runs resume DIR``) re-executes exactly the
cells without a verified checkpoint.  Checkpoints are verified twice on
load -- the store's integrity header inside the file and the whole-file
digest recorded in the ``done`` ledger record -- so a corrupt or
swapped checkpoint is evicted and its cell demoted to pending (with a
structured warning) instead of poisoning the resumed report.

Cell identity is :func:`repro.perf.cache.cell_key`: a SHA-256 over the
cell's canonical configuration plus the code fingerprint.  A resumed
run under changed code therefore matches no prior keys and recomputes
everything -- there is no way to resume stale results into fresh code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.perf.cache import ResultCache
from repro.perf.cells import Cell

#: Ledger file name inside a run directory.
MANIFEST_NAME = "manifest.jsonl"
#: Directory of the run directory's own checkpoint store.
CELLS_DIR = "cells"

#: Cell states derived from the ledger (latest record wins).
STATUS_PENDING = "pending"
STATUS_DONE = "done"
STATUS_FAILED = "failed"


@dataclass
class CellRecord:
    """Latest known state of one planned cell."""

    key: str
    label: str
    group: str
    status: str = STATUS_PENDING
    attempts: int = 0
    digest: Optional[str] = None
    error: str = ""


@dataclass
class RunStatus:
    """Point-in-time summary of one run directory."""

    root: str
    fingerprint: str
    runs: int
    resumed_runs: int
    cells: Dict[str, CellRecord] = field(default_factory=dict)
    #: Malformed ledger lines skipped while loading (a truncated tail
    #: from a killed writer is expected to contribute at most one).
    skipped_lines: int = 0
    #: Last recorded CLI command (for ``repro runs resume``).
    command: List[str] = field(default_factory=list)

    def counts(self) -> Dict[str, int]:
        out = {STATUS_PENDING: 0, STATUS_DONE: 0, STATUS_FAILED: 0}
        for rec in self.cells.values():
            out[rec.status] += 1
        return out

    @property
    def complete(self) -> bool:
        """True when every planned cell has a ``done`` record."""
        return bool(self.cells) and all(
            rec.status == STATUS_DONE for rec in self.cells.values()
        )

    def render(self) -> str:
        counts = self.counts()
        lines = [
            f"run dir:           {self.root}",
            f"code fingerprint:  {self.fingerprint[:16]}",
            f"invocations:       {self.runs} ({self.resumed_runs} resumed)",
            f"planned cells:     {len(self.cells)}",
            f"  done:            {counts[STATUS_DONE]}",
            f"  failed:          {counts[STATUS_FAILED]}",
            f"  pending:         {counts[STATUS_PENDING]}",
        ]
        if self.command:
            lines.append(f"command:           {' '.join(self.command)}")
        if self.skipped_lines:
            lines.append(
                f"skipped ledger lines: {self.skipped_lines} "
                "(truncated/corrupt; harmless)"
            )
        failed = sorted(
            rec.label for rec in self.cells.values()
            if rec.status == STATUS_FAILED
        )
        if failed:
            lines.append("failed cells:      " + ", ".join(failed))
        verdict = (
            "complete" if self.complete
            else "resumable (pending/failed cells remain)"
            if self.cells else "empty (no cells planned yet)"
        )
        lines.append(f"state:             {verdict}")
        return "\n".join(lines)


class RunManifest:
    """One run directory: an append-only ledger over a result store.

    ``store`` holds the checkpoints; ``None`` opens the run directory's
    own :class:`~repro.perf.cache.ResultCache` at ``<root>/cells``
    (stale generations are kept until :meth:`gc`).  ``fingerprint``
    overrides the code fingerprint of that own store.
    """

    def __init__(
        self,
        root: Path | str,
        *,
        fingerprint: Optional[str] = None,
        store: Optional[ResultCache] = None,
    ) -> None:
        self.root = Path(root)
        if store is None:
            store = ResultCache(
                self.root / CELLS_DIR, fingerprint=fingerprint,
                evict_stale=False,
            )
        self.store = store
        self.fingerprint = store.fingerprint
        self.path = self.root / MANIFEST_NAME
        #: Cells restored from checkpoints this session (provenance).
        self.restored = 0
        #: Cells executed (not restored) this session.
        self.executed = 0
        #: Keys already planned (loaded from the ledger, kept in sync).
        self._planned: Dict[str, CellRecord] = self.status().cells

    # -- ledger ----------------------------------------------------------

    def _append(self, record: Dict[str, Any]) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()

    def open_run(self, command: Sequence[str], *, resumed: bool) -> None:
        """Record one CLI invocation against this run directory."""
        self._append(
            {
                "type": "run",
                "fingerprint": self.fingerprint,
                "command": list(command),
                "resumed": bool(resumed),
            }
        )

    def key(self, cell: Cell) -> str:
        return self.store.key(cell)

    def plan(self, cells: Sequence[Cell]) -> None:
        """Append ``plan`` records for cells not yet in the ledger."""
        for cell in cells:
            key = self.key(cell)
            if key in self._planned:
                continue
            self._append(
                {
                    "type": "plan",
                    "key": key,
                    "label": cell.label(),
                    "group": cell.group,
                }
            )
            self._planned[key] = CellRecord(
                key=key, label=cell.label(), group=cell.group
            )

    def _settle(
        self, cell: Cell, status: str, *, attempts: int, **fields: str
    ) -> None:
        """Append one ``done``/``failed`` record and mirror it in memory."""
        key = self.key(cell)
        self._append(
            {"type": status, "key": key, "attempts": attempts, **fields}
        )
        rec = self._planned.setdefault(
            key, CellRecord(key=key, label=cell.label(), group=cell.group)
        )
        rec.status = status
        rec.attempts = attempts
        rec.digest = fields.get("digest")
        rec.error = fields.get("error", "")

    def record_done(self, cell: Cell, outcome: Any, *, attempts: int) -> None:
        """Checkpoint one completed cell and append its ``done`` record."""
        digest = self.store.put(cell, outcome)
        self._settle(cell, STATUS_DONE, attempts=attempts, digest=digest)
        self.executed += 1

    def record_failed(self, cell: Cell, *, attempts: int, error: str) -> None:
        """Append a ``failed`` record for one permanently failed cell."""
        self._settle(cell, STATUS_FAILED, attempts=attempts, error=error)

    # -- resume ----------------------------------------------------------

    def load(self, cell: Cell) -> Optional[Any]:
        """A verified checkpointed outcome for ``cell``, else ``None``.

        Returns ``None`` for cells without a ``done`` record, and for
        checkpoints the store rejects: a missing file silently, and --
        with a structured warning, after evicting the file -- one that
        fails the whole-file digest recorded in the ledger or the
        integrity header inside it.  Either way the caller re-executes.
        """
        rec = self._planned.get(self.key(cell))
        if rec is None or rec.status != STATUS_DONE:
            return None
        outcome = self.store.get(cell, digest=rec.digest)
        if outcome is None:
            rec.status = STATUS_PENDING
            return None
        self.restored += 1
        return outcome

    # -- inspection ------------------------------------------------------

    def status(self) -> RunStatus:
        """Replay the ledger into the latest per-cell state."""
        status = RunStatus(
            root=str(self.root), fingerprint=self.fingerprint,
            runs=0, resumed_runs=0,
        )
        if not self.path.is_file():
            return status
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return status
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                status.skipped_lines += 1
                continue
            if not isinstance(record, dict):
                status.skipped_lines += 1
                continue
            rtype = record.get("type")
            if rtype == "run":
                status.runs += 1
                status.resumed_runs += 1 if record.get("resumed") else 0
                command = record.get("command")
                if isinstance(command, list):
                    status.command = [str(c) for c in command]
            elif rtype == "plan":
                key = record.get("key")
                if isinstance(key, str) and key not in status.cells:
                    status.cells[key] = CellRecord(
                        key=key,
                        label=str(record.get("label", key[:8])),
                        group=str(record.get("group", "cell")),
                    )
            elif rtype in (STATUS_DONE, STATUS_FAILED):
                key = record.get("key")
                if not isinstance(key, str):
                    status.skipped_lines += 1
                    continue
                rec = status.cells.setdefault(
                    key,
                    CellRecord(key=key, label=key[:8], group="cell"),
                )
                rec.status = rtype
                rec.attempts = int(record.get("attempts", 0) or 0)
                rec.digest = record.get("digest")
                rec.error = str(record.get("error", ""))
            else:
                status.skipped_lines += 1
        return status

    # -- maintenance -----------------------------------------------------

    def gc(self) -> Dict[str, int]:
        """Drop unusable checkpoints; return removal counters.

        Removes (a) every checkpoint written under another code
        fingerprint -- the store keeps one generation directory per
        fingerprint, and those keys can never match again -- and (b)
        orphaned checkpoints of the current generation that no ``done``
        record references.  The ledger itself is never rewritten.
        ``repro runs gc`` sweeps the run directory's own store; a
        shared ``--cache-dir`` is managed by ``repro cache``.
        """
        done = {
            rec.key for rec in self.status().cells.values()
            if rec.status == STATUS_DONE
        }
        stale, stale_bytes = self.store.evict_stale()
        orphaned, orphaned_bytes = self.store.evict_except(done)
        return {
            "orphaned": orphaned,
            "stale": stale,
            "bytes": stale_bytes + orphaned_bytes,
        }
