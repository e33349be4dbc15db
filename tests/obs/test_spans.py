"""Tests for span records, the recorder, and the ``span()`` helper."""

from __future__ import annotations

import pytest

from repro.obs import runtime
from repro.obs.runtime import (
    SPAN_WALL_METRIC,
    ObsCollector,
    collecting,
    inc,
    observe,
    set_gauge,
    span,
)
from repro.obs.spans import STATUS_ERROR, STATUS_OK, Span, SpanRecorder
from repro.sim import Simulator


def _span(source="test", name="work", start=0.0, end=1.0, **kw):
    return Span(
        name=name, source=source, wall_start=start, wall_end=end, **kw
    )


class TestSpan:
    def test_elapsed(self):
        s = _span(start=1.0, end=3.5, sim_start=0.0, sim_end=10.0)
        assert s.wall_elapsed == 2.5
        assert s.sim_elapsed == 10.0

    def test_sim_elapsed_none_without_sim_stamps(self):
        assert _span().sim_elapsed is None

    def test_dict_roundtrip(self):
        s = _span(
            sim_start=0.0, sim_end=2.0, status=STATUS_ERROR,
            labels=(("cell", "cpu-0"),),
        )
        assert Span.from_dict(s.as_dict()) == s

    def test_render_mentions_source_and_status(self):
        text = _span(status=STATUS_ERROR).render()
        assert "test:work" in text
        assert "error" in text


class TestSpanHelper:
    def test_uninstalled_is_a_bare_noop(self):
        assert runtime.installed() is None
        with span("work", "test"):
            pass  # must not raise, record, or read any clock

    def test_records_wall_and_sim_stamps(self):
        sim = Simulator(seed=1)
        with collecting() as collector:
            with span("work", "test", sim=sim, cell="a"):
                pass
        (recorded,) = collector.spans.spans()
        assert recorded.name == "work"
        assert recorded.wall_end >= recorded.wall_start
        assert recorded.sim_start == 0.0 and recorded.sim_end == 0.0
        assert recorded.status == STATUS_OK
        assert recorded.labels == (("cell", "a"),)

    def test_exception_marks_error_and_propagates(self):
        with collecting() as collector:
            with pytest.raises(RuntimeError):
                with span("work", "test"):
                    raise RuntimeError("boom")
        (recorded,) = collector.spans.spans()
        assert recorded.status == STATUS_ERROR

    def test_span_feeds_wall_histogram(self):
        with collecting() as collector:
            with span("work", "test"):
                pass
        hist = collector.metrics.histogram(SPAN_WALL_METRIC, source="test")
        assert hist.count == 1


class TestRuntimeHelpers:
    def test_helpers_noop_when_uninstalled(self):
        assert runtime.installed() is None
        inc("x_total")
        set_gauge("g", 1.0)
        observe("h", 0.5)  # nothing to assert beyond "does not raise"

    def test_helpers_record_when_installed(self):
        with collecting() as collector:
            inc("x_total", 2.0, pm="pm1")
            set_gauge("g", 7.0)
            observe("h", 0.5)
        assert collector.metrics.counter("x_total", pm="pm1").value == 2.0
        assert collector.metrics.gauge("g").value == 7.0
        assert collector.metrics.histogram("h").count == 1

    def test_collecting_restores_previous_state(self):
        outer = runtime.install(ObsCollector())
        with collecting():
            assert runtime.installed() is not outer
        assert runtime.installed() is outer
        runtime.uninstall()
        with collecting():
            pass
        assert runtime.installed() is None


class TestCollectorSnapshot:
    def test_snapshot_merge_combines_metrics_and_spans(self):
        child = ObsCollector()
        child.metrics.counter("x_total").inc(3.0)
        child.record_span(_span())
        parent = ObsCollector()
        parent.merge_snapshot(child.snapshot())
        parent.merge_snapshot(child.snapshot())
        assert parent.metrics.counter("x_total").value == 6.0
        assert len(parent.spans) == 2

    def test_unknown_snapshot_schema_rejected(self):
        with pytest.raises(ValueError):
            ObsCollector().merge_snapshot({"schema": "bogus/9"})
