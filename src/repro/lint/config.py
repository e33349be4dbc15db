"""Lint configuration: defaults plus ``[tool.repro.lint]`` overrides.

The in-code defaults below are the canonical policy for this tree; the
``pyproject.toml`` table exists so the policy is visible next to the
rest of the project metadata and tweakable without editing the linter.
Keys may be written with dashes or underscores (``rng-allowed`` /
``rng_allowed``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional, Tuple

try:  # Python >= 3.11
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - 3.10 fallback
    tomllib = None  # type: ignore[assignment]


@dataclass(frozen=True)
class LintConfig:
    """Rule selection and path scoping for one lint run."""

    #: Only these codes run when non-empty (e.g. ``("REP004",)``).
    select: Tuple[str, ...] = ()
    #: Codes never run (applied after ``select``).
    ignore: Tuple[str, ...] = ()
    #: Path fragments skipped entirely while walking directories.
    exclude: Tuple[str, ...] = ("__pycache__", ".git", "build", ".egg-info")
    #: Files allowed to construct raw generators (REP001/REP007 exempt).
    rng_allowed: Tuple[str, ...] = ("repro/sim/rng.py",)
    #: Deterministic-core paths where REP002/REP009 apply.
    wallclock_paths: Tuple[str, ...] = (
        "repro/sim", "repro/xen", "repro/models", "repro/monitor",
        "repro/placement", "repro/faults", "repro/workloads", "repro/rubis",
        "repro/cluster", "repro/obs",
    )
    #: Paths allowed to print() (CLI and report/analysis front-ends).
    print_allowed: Tuple[str, ...] = (
        "repro/cli.py", "repro/__main__.py", "repro/lint",
        "repro/experiments",
    )
    #: Files whose ``# repro: noqa`` comments must name codes and carry
    #: a justification (REP011) -- the sanctioned wall-clock funnels.
    noqa_justify: Tuple[str, ...] = (
        "repro/perf/supervisor.py", "repro/obs/runtime.py",
    )
    #: Declared RNG stream manifest (REP102): ``(pattern, owners)``
    #: pairs loaded from ``[tool.repro.lint.streams]``.  Exact names or
    #: glob patterns (dynamic f-string families, declared verbatim) map
    #: to the path fragment(s) of their owning module(s).  Empty means
    #: "no manifest": REP102 then only checks cross-module collisions.
    streams: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()
    #: Dotted qualnames of functions executed inside ``--jobs`` pool
    #: workers; everything they reach is process-boundary code (REP103).
    worker_entrypoints: Tuple[str, ...] = (
        "repro.perf.executor._pool_worker",
        "repro.faults.workers.FaultableCell.run",
    )
    #: Modules whose module-level state is *meant* to be per-worker
    #: (sanitizer/obs process defaults, set and restored in the worker).
    worker_state_allowed: Tuple[str, ...] = (
        "repro/sim/sanitize.py", "repro/obs/runtime.py",
    )
    #: Collector-internal modules the deterministic core must not
    #: import (REP106); the runtime funnels are the sanctioned surface.
    obs_internal: Tuple[str, ...] = (
        "repro.obs.registry", "repro.obs.spans",
    )


_TUPLE_KEYS = {f.name for f in fields(LintConfig)}


def _normalise(key: str) -> str:
    return key.replace("-", "_")


def load_config(pyproject: Optional[Path] = None) -> LintConfig:
    """Build a :class:`LintConfig`, overlaying ``[tool.repro.lint]``.

    ``pyproject`` defaults to ``./pyproject.toml``; a missing file or a
    missing table simply yields the defaults.  Unknown keys raise so
    config typos fail loudly rather than silently linting with the
    wrong policy.
    """
    cfg = LintConfig()
    path = pyproject if pyproject is not None else Path("pyproject.toml")
    if tomllib is None or not path.is_file():
        return cfg
    with path.open("rb") as fh:
        data = tomllib.load(fh)
    table = data.get("tool", {}).get("repro", {}).get("lint", {})
    overrides = {}
    for raw_key, value in table.items():
        key = _normalise(raw_key)
        if key not in _TUPLE_KEYS:
            raise ValueError(
                f"unknown [tool.repro.lint] key {raw_key!r}; "
                f"expected one of {sorted(_TUPLE_KEYS)}"
            )
        if key == "streams":
            if not isinstance(value, dict):
                raise ValueError(
                    "[tool.repro.lint.streams] must be a table of "
                    "stream name/pattern -> owning module path(s)"
                )
            overrides[key] = _normalise_streams(value)
            continue
        if isinstance(value, str):
            value = [value]
        overrides[key] = tuple(str(v) for v in value)
    return replace(cfg, **overrides)


def _normalise_streams(table: dict) -> Tuple[Tuple[str, Tuple[str, ...]], ...]:
    """``{pattern: path | [paths]}`` -> sorted hashable pairs."""
    pairs = []
    for pattern in sorted(table):
        owners = table[pattern]
        if isinstance(owners, str):
            owners = [owners]
        pairs.append((str(pattern), tuple(str(o) for o in owners)))
    return tuple(pairs)
