"""Content-addressed on-disk cache of cell results.

A cell's output is a pure function of (code, configuration, seed) --
PR 2's determinism guarantees make that a hard invariant, not a hope.
The cache exploits it: the key is a SHA-256 over the cell's canonical
JSON configuration plus a *code fingerprint* of the whole ``repro``
package, so

* a re-run of an already-computed experiment group becomes I/O-bound
  (unpickle instead of simulate), and
* any source change anywhere in ``src/repro`` invalidates every entry
  -- there is no way to read a stale result through a fresh key.

Layout: ``<root>/<fingerprint[:16]>/<key>.pkl``.  Grouping by
fingerprint makes stale eviction trivial: on open, every sibling
generation directory belongs to old code and is deleted.

Entries are stored through :mod:`repro.perf.integrity`: each file
carries a checksummed, schema-tagged header verified on every read, so
a truncated or corrupted entry is evicted as a miss (with an
:class:`~repro.perf.integrity.ArtifactIntegrityWarning`) instead of
poisoning a run or crashing it.

This is the one store of :class:`~repro.perf.executor.CellOutcome`
files.  A run directory (:mod:`repro.perf.manifest`) keeps its
checkpoints in a cache of its own at ``<run-dir>/cells`` -- or in the
``--cache-dir`` cache when one is given, so a completed cell is written
once -- and adds only the ledger on top.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Container, Iterable, Optional, Tuple

from repro.perf import integrity
from repro.perf.cells import Cell

#: Characters of the fingerprint used for the generation directory.
_GENERATION_CHARS = 16

#: Payload schema of cached cell outcomes (integrity header tag).
CACHE_SCHEMA = "repro.perf.cell-outcome/v1"

#: Payload schema of the persisted hit/miss counters.
STATS_SCHEMA = "repro.perf.cache-stats/v1"

#: Stats file inside the generation directory.  Deliberately not
#: ``*.pkl`` so entry/size accounting never counts it.
STATS_FILE = "stats.meta"


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """SHA-256 over every ``.py`` file of the installed ``repro`` package.

    Computed once per process.  The hash covers relative paths and file
    bytes in sorted order, so it is independent of filesystem layout
    and stable across machines for identical sources.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x01")
    return digest.hexdigest()


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, no NaN."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def cell_key(cell: Cell, fingerprint: str) -> str:
    """Content address of one cell under one code fingerprint.

    The run manifest's ledger records cells under the same key as the
    cache that stores them.
    """
    material = canonical_json(
        {"config": cell.config(), "code": fingerprint}
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Point-in-time view of one cache directory."""

    root: str
    fingerprint: str
    entries: int
    stale_generations: int
    bytes: int
    hits: int
    misses: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def render(self) -> str:
        lines = [
            f"cache root:        {self.root}",
            f"code fingerprint:  {self.fingerprint[:_GENERATION_CHARS]}",
            f"entries:           {self.entries}",
            f"size:              {self.bytes} bytes",
            f"stale generations: {self.stale_generations}",
        ]
        if self.hits or self.misses:
            lines.append(
                f"hits/misses:       {self.hits}/{self.misses} "
                f"(hit rate {self.hit_rate:.0%})"
            )
        return "\n".join(lines)


class ResultCache:
    """Pickle store of cell outcomes keyed by content address.

    Parameters
    ----------
    root:
        Cache directory; created on demand.  One subdirectory per code
        fingerprint generation.
    fingerprint:
        Override the code fingerprint (tests use this to simulate a
        code change without editing sources).
    evict_stale:
        Delete generation directories from older fingerprints on open.
    """

    def __init__(
        self,
        root: Path | str,
        *,
        fingerprint: Optional[str] = None,
        evict_stale: bool = True,
    ) -> None:
        self.root = Path(root)
        self.fingerprint = fingerprint or code_fingerprint()
        self.generation = self.fingerprint[:_GENERATION_CHARS]
        self._dir = self.root / self.generation
        #: Cells served from disk this session.
        self.hits = 0
        #: Cells that had to be simulated this session.
        self.misses = 0
        if evict_stale:
            self.evict_stale()

    # -- persisted hit/miss counters -------------------------------------

    @property
    def _stats_path(self) -> Path:
        return self._dir / STATS_FILE

    def _persisted_stats(self) -> tuple[int, int]:
        """Lifetime ``(hits, misses)`` recorded by earlier sessions.

        The stats file is integrity-guarded like every other artifact;
        a corrupt or truncated one is dropped (with a warning) and the
        counters restart from zero rather than poisoning the view.
        """
        try:
            payload = integrity.read_artifact(
                self._stats_path, schema=STATS_SCHEMA
            )
        except integrity.IntegrityError as exc:
            if exc.reason != "missing":
                self._stats_path.unlink(missing_ok=True)
                integrity.warn_corrupt(exc, action="reset cache stats")
            return 0, 0
        return int(payload["hits"]), int(payload["misses"])

    def flush_stats(self) -> None:
        """Fold this session's hit/miss counters into the stats file.

        Called by the CLI at the end of a cached run so a later
        ``repro cache stats`` (which opens a *fresh* ``ResultCache``)
        reports real lifetime counters instead of zeros.  Session
        counters reset so a double flush never double-counts.
        """
        if not self.hits and not self.misses:
            return
        hits, misses = self._persisted_stats()
        integrity.write_artifact(
            self._stats_path,
            {"hits": hits + self.hits, "misses": misses + self.misses},
            schema=STATS_SCHEMA,
        )
        self.hits = 0
        self.misses = 0

    # -- keying ----------------------------------------------------------

    def key(self, cell: Cell) -> str:
        """Content address of one cell under the current code."""
        return cell_key(cell, self.fingerprint)

    def path(self, cell: Cell) -> Path:
        """The file that holds (or would hold) ``cell``'s outcome."""
        return self._dir / f"{self.key(cell)}.pkl"

    # -- storage ---------------------------------------------------------

    def get(
        self, cell: Cell, *, digest: Optional[str] = None
    ) -> Optional[Any]:
        """The stored outcome for ``cell``, or ``None`` on a miss.

        Entries are verified through the integrity guard: an
        unreadable, truncated, checksum-mismatched or wrong-schema file
        counts as a miss, is evicted, and raises nothing -- the caller
        recomputes and overwrites it.  A missing entry is a plain miss
        (no warning).  ``digest`` is the whole-file digest :meth:`put`
        returned (a run ledger records it); a file that is internally
        consistent but differs from it -- a swapped entry -- is evicted
        the same way.
        """
        path = self.path(cell)
        try:
            outcome = integrity.read_artifact(
                path, schema=CACHE_SCHEMA, digest=digest
            )
        except integrity.IntegrityError as exc:
            self.misses += 1
            if exc.reason != "missing":
                path.unlink(missing_ok=True)
                integrity.warn_corrupt(exc, action="evicted cache entry")
            return None
        self.hits += 1
        return outcome

    def put(self, cell: Cell, outcome: Any) -> str:
        """Store one outcome atomically; return the whole-file digest."""
        path = self.path(cell)
        integrity.write_artifact(path, outcome, schema=CACHE_SCHEMA)
        return integrity.file_digest(path)

    # -- maintenance -----------------------------------------------------

    def _stale_generations(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(
            p
            for p in self.root.iterdir()
            if p.is_dir() and p.name != self.generation
        )

    def evict_stale(self) -> Tuple[int, int]:
        """Delete older code's entries; return ``(entries, bytes)`` removed."""
        entries = size = 0
        for generation in self._stale_generations():
            removed, nbytes = _remove(sorted(generation.glob("*.pkl")))
            entries += removed
            size += nbytes
            shutil.rmtree(generation, ignore_errors=True)
        return entries, size

    def evict_except(self, keys: Container[str]) -> Tuple[int, int]:
        """Delete current entries whose key is not in ``keys``.

        Returns ``(entries, bytes)`` removed.  A run directory's gc uses
        this to drop checkpoints its ledger does not reference.
        """
        if not self._dir.is_dir():
            return 0, 0
        return _remove(
            path for path in sorted(self._dir.glob("*.pkl"))
            if path.stem not in keys
        )

    def clear(self) -> int:
        """Delete every entry of every generation; return entries removed."""
        removed = 0
        if self.root.is_dir():
            removed = sum(1 for _ in self.root.rglob("*.pkl"))
            shutil.rmtree(self.root, ignore_errors=True)
        return removed

    def stats(self) -> CacheStats:
        """Entry/size counts for the current generation.

        ``hits``/``misses`` are this session's counters plus the
        lifetime counters persisted by :meth:`flush_stats` -- so a
        fresh instance (``repro cache stats``) still reports what the
        cache actually did.
        """
        entries = 0
        size = 0
        if self._dir.is_dir():
            for path in sorted(self._dir.glob("*.pkl")):
                entries += 1
                size += path.stat().st_size
        persisted_hits, persisted_misses = self._persisted_stats()
        return CacheStats(
            root=str(self.root),
            fingerprint=self.fingerprint,
            entries=entries,
            stale_generations=len(self._stale_generations()),
            bytes=size,
            hits=persisted_hits + self.hits,
            misses=persisted_misses + self.misses,
        )


def _remove(paths: Iterable[Path]) -> Tuple[int, int]:
    """Unlink ``paths``; return ``(files, bytes)`` this call removed.

    A concurrent resume/gc may remove a file between the directory
    listing and this sweep: stat defensively and count only the files
    this call actually removed.
    """
    files = size = 0
    for path in paths:
        try:
            nbytes = path.stat().st_size
            path.unlink()
        except FileNotFoundError:
            continue
        files += 1
        size += nbytes
    return files, size
