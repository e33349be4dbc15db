"""The SpanRecorder contract and the uninstalled-is-silent contract.

The span log promises bounded capacity with oldest-first eviction,
``emitted``/``dropped`` counters that keep running, and empty-source
rejection; at the instrumentation layer, nothing whatsoever is
recorded when no collector is installed.
"""

from __future__ import annotations

import pytest

from repro.obs import runtime
from repro.obs.spans import Span, SpanRecorder


def _emit(log, source="src", tag="m"):
    log.record(Span(name=tag, source=source, wall_start=0.0, wall_end=1.0))


class TestSpanRecorderContract:
    def test_bounded_capacity_drops_oldest(self):
        log = SpanRecorder(capacity=3)
        for i in range(5):
            _emit(log, tag=str(i))
        assert len(log) == 3
        assert log.emitted == 5
        assert log.dropped == 2
        assert [s.name for s in log.spans()] == ["2", "3", "4"]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            SpanRecorder(capacity=0)

    def test_empty_source_rejected(self):
        log = SpanRecorder()
        with pytest.raises(ValueError):
            _emit(log, source="")

    def test_tail_and_clear(self):
        log = SpanRecorder()
        for i in range(4):
            _emit(log, tag=str(i))
        assert [s.name for s in log.tail(2)] == ["2", "3"]
        with pytest.raises(ValueError):
            log.tail(0)
        log.clear()
        assert len(log) == 0
        assert log.emitted == 4  # counters keep running


class TestNothingRecordedWhenUninstalled:
    """The zero-overhead side of the contract, at the call sites."""

    def test_obs_helpers_leave_no_trace(self):
        assert runtime.installed() is None
        with runtime.span("work", "test", cell="a"):
            runtime.inc("x_total")
        assert runtime.installed() is None  # still nothing to inspect

    def test_installed_collector_sees_what_uninstalled_missed(self):
        with runtime.collecting() as collector:
            with runtime.span("work", "test"):
                runtime.inc("x_total")
        assert len(collector.spans) == 1
        assert collector.metrics.counter("x_total").value == 1.0
        # Outside the scope the helpers are no-ops again.
        runtime.inc("x_total", 100.0)
        assert collector.metrics.counter("x_total").value == 1.0
