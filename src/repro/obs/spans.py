"""Span records and the bounded span log.

A :class:`Span` is one timed region of work -- a simulator run, a cell
execution, a monitor window, a placement round -- stamped with
wall-clock start/end always and sim-clock start/end when a simulator
was in scope.  :class:`SpanRecorder` keeps a bounded log of finished
spans: oldest-first eviction, and counters that keep running
regardless.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

STATUS_OK = "ok"
STATUS_ERROR = "error"

#: Spans a recorder retains by default (oldest dropped first).
SPAN_CAPACITY = 10_000


@dataclass(frozen=True)
class Span:
    """One finished timed region."""

    name: str
    source: str
    wall_start: float
    wall_end: float
    sim_start: Optional[float] = None
    sim_end: Optional[float] = None
    status: str = STATUS_OK
    #: Sorted ``(name, value)`` pairs, hashable like a labels key.
    labels: Tuple[Tuple[str, str], ...] = field(default_factory=tuple)

    @property
    def wall_elapsed(self) -> float:
        return self.wall_end - self.wall_start

    @property
    def sim_elapsed(self) -> Optional[float]:
        if self.sim_start is None or self.sim_end is None:
            return None
        return self.sim_end - self.sim_start

    def as_dict(self) -> Dict[str, object]:
        """JSON-able form (the JSONL exporter's row)."""
        return {
            "name": self.name,
            "source": self.source,
            "wall_start": self.wall_start,
            "wall_end": self.wall_end,
            "sim_start": self.sim_start,
            "sim_end": self.sim_end,
            "status": self.status,
            "labels": {k: v for k, v in self.labels},
        }

    @staticmethod
    def from_dict(row: Dict[str, object]) -> "Span":
        return Span(
            name=row["name"],
            source=row["source"],
            wall_start=row["wall_start"],
            wall_end=row["wall_end"],
            sim_start=row.get("sim_start"),
            sim_end=row.get("sim_end"),
            status=row.get("status", STATUS_OK),
            labels=tuple(sorted(dict(row.get("labels") or {}).items())),
        )

    def render(self) -> str:
        sim = (
            f" sim {self.sim_start:.3f}-{self.sim_end:.3f}s"
            if self.sim_elapsed is not None
            else ""
        )
        labels = (
            " " + " ".join(f"{k}={v}" for k, v in self.labels)
            if self.labels
            else ""
        )
        return (
            f"[{self.wall_elapsed * 1e3:10.3f}ms] {self.source}:"
            f"{self.name}{sim} {self.status}{labels}"
        )


class SpanRecorder:
    """Bounded in-memory log of finished spans.

    Parameters
    ----------
    capacity:
        Maximum retained spans (oldest dropped first).
    """

    def __init__(self, *, capacity: int = SPAN_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._spans: Deque[Span] = deque(maxlen=capacity)
        #: Total recorded attempts (including dropped ones).
        self.emitted = 0
        #: Recorded but later evicted by the capacity bound.
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._spans)

    def record(self, span: Span) -> None:
        """Append one finished span (subject to capacity)."""
        if not span.source:
            raise ValueError("source must be non-empty")
        self.emitted += 1
        if len(self._spans) == self._spans.maxlen:
            self.dropped += 1
        self._spans.append(span)

    def spans(self, *, source: Optional[str] = None) -> List[Span]:
        """Recorded spans, optionally restricted to one source."""
        return [
            s
            for s in self._spans
            if source is None or s.source == source
        ]

    def sources(self) -> List[str]:
        """Distinct sources present, sorted."""
        return sorted({s.source for s in self._spans})

    def tail(self, n: int = 20) -> List[Span]:
        """The most recent ``n`` spans."""
        if n <= 0:
            raise ValueError("n must be positive")
        return list(self._spans)[-n:]

    def clear(self) -> None:
        """Drop all recorded spans (counters keep running)."""
        self._spans.clear()
