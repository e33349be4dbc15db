"""The process-wide observability collector and instrumentation helpers.

Components never hold a registry; they call the module-level helpers
(:func:`inc`, :func:`set_gauge`, :func:`observe`, :func:`span`), which
are cheap no-ops unless a collector is :func:`install`-ed.  The helpers
only listen: no component asks whether a collector is installed to
choose which code runs, so an observed run takes the same path as an
unobserved one.

Whether a run collects is simply ``installed() is not None``.  The cell
executor ships that flag to its pool workers, which run each cell under
a scoped collector, snapshot it into the outcome, and let the parent
merge the snapshot -- so ``--jobs N`` runs report the same metrics a
serial run would.

This module is the package's sanctioned wall-clock reader for
diagnostics: :func:`wall_now` is the REP011-audited funnel every span
stamp flows through (the supervisor's deadline clock follows the same
precedent).
Observability never touches a random stream and never schedules an
event, so enabling it cannot change what a run computes.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from repro.obs.registry import MetricsRegistry, labels_key
from repro.obs.spans import STATUS_ERROR, STATUS_OK, Span, SpanRecorder

#: Schema tag of :meth:`ObsCollector.snapshot` payloads.
SNAPSHOT_SCHEMA = "repro-obs-snapshot/1"

#: Histogram of span wall durations, labelled by source (seconds).
SPAN_WALL_METRIC = "repro_span_wall_seconds"


def wall_now() -> float:
    """Wall-clock seconds for span stamps (diagnostics only)."""
    return time.perf_counter()  # repro: noqa[REP002] span wall stamps profile the harness itself and never feed simulated time


class ObsCollector:
    """One metrics registry plus one span recorder."""

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.spans = SpanRecorder()

    def record_span(self, span: Span) -> None:
        """Record a finished span and its wall duration histogram."""
        self.spans.record(span)
        self.metrics.histogram(
            SPAN_WALL_METRIC,
            "wall-clock duration of recorded spans",
            source=span.source,
        ).observe(span.wall_elapsed)

    def snapshot(self) -> Dict[str, object]:
        """JSON-able dump of everything collected so far."""
        return {
            "schema": SNAPSHOT_SCHEMA,
            "metrics": self.metrics.snapshot(),
            "spans": [s.as_dict() for s in self.spans.spans()],
        }

    def merge_snapshot(self, snap: Dict[str, object]) -> None:
        """Fold a worker/cached snapshot into this collector."""
        if snap.get("schema") != SNAPSHOT_SCHEMA:
            raise ValueError(
                f"unknown obs snapshot schema {snap.get('schema')!r}"
            )
        self.metrics.merge_snapshot(snap["metrics"])
        for row in snap["spans"]:
            self.spans.record(Span.from_dict(row))


# --------------------------------------------------------------------------
# Process-wide state.
# --------------------------------------------------------------------------

_collector: Optional[ObsCollector] = None


def install(collector: Optional[ObsCollector] = None) -> ObsCollector:
    """Install (and return) the process-wide collector."""
    global _collector
    _collector = collector if collector is not None else ObsCollector()
    return _collector


def installed() -> Optional[ObsCollector]:
    """The current collector, or ``None`` when observability is off."""
    return _collector


def uninstall() -> None:
    """Remove the process-wide collector (helpers become no-ops again)."""
    global _collector
    _collector = None


@contextmanager
def collecting(
    collector: Optional[ObsCollector] = None,
) -> Iterator[ObsCollector]:
    """Scoped install: the previous collector (or none) returns on exit."""
    global _collector
    previous = _collector
    active = install(collector)
    try:
        yield active
    finally:
        _collector = previous


# --------------------------------------------------------------------------
# Cheap instrumentation helpers (no-ops when nothing is installed).
# --------------------------------------------------------------------------


def inc(name: str, amount: float = 1.0, **labels: object) -> None:
    """Increment a counter, if a collector is installed."""
    if _collector is not None:
        _collector.metrics.counter(name, **labels).inc(amount)


def set_gauge(name: str, value: float, **labels: object) -> None:
    """Set a gauge, if a collector is installed."""
    if _collector is not None:
        _collector.metrics.gauge(name, **labels).set(value)


def observe(name: str, value: float, **labels: object) -> None:
    """Observe into a histogram, if a collector is installed."""
    if _collector is not None:
        _collector.metrics.histogram(name, **labels).observe(value)


@contextmanager
def span(
    name: str, source: str, *, sim=None, **labels: object
) -> Iterator[None]:
    """Time a region: wall stamps always, sim stamps when ``sim`` given.

    Uninstalled, this is a bare ``yield`` -- no clock is read, nothing
    allocated beyond the generator frame, and exceptions pass through
    untouched either way (recorded with ``status="error"``).
    """
    collector = _collector
    if collector is None:
        yield
        return
    wall_start = wall_now()
    sim_start = sim.now if sim is not None else None
    status = STATUS_OK
    try:
        yield
    except BaseException:
        status = STATUS_ERROR
        raise
    finally:
        collector.record_span(
            Span(
                name=name,
                source=source,
                wall_start=wall_start,
                wall_end=wall_now(),
                sim_start=sim_start,
                sim_end=sim.now if sim is not None else None,
                status=status,
                labels=labels_key(labels),
            )
        )
