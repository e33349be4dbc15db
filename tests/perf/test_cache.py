"""Content-addressed result cache: round trips, keys, stale eviction."""

from __future__ import annotations

import pytest

from repro.perf.cache import (
    ResultCache,
    canonical_json,
    code_fingerprint,
)
from repro.perf.integrity import ArtifactIntegrityWarning
from repro.perf.cells import MicrobenchCell, content_digest
from repro.perf.executor import (
    CellOutcome,
    ExecutionContext,
    execution_context,
    run_cells,
)


def _cell(level: float = 25.0, **overrides) -> MicrobenchCell:
    kwargs = dict(
        kind="cpu", n_vms=1, level=level, index=0, duration=4.0, seed=42
    )
    kwargs.update(overrides)
    return MicrobenchCell(**kwargs)


class TestKeying:
    def test_canonical_json_is_order_independent(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json(
            {"a": 2, "b": 1}
        )

    def test_key_depends_on_config(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.key(_cell()) == cache.key(_cell())
        assert cache.key(_cell()) != cache.key(_cell(seed=43))
        assert cache.key(_cell()) != cache.key(_cell(level=50.0))

    def test_key_depends_on_code_fingerprint(self, tmp_path):
        now = ResultCache(tmp_path, fingerprint="a" * 64)
        later = ResultCache(tmp_path, fingerprint="b" * 64)
        assert now.key(_cell()) != later.key(_cell())

    def test_code_fingerprint_is_stable_hex(self):
        fp = code_fingerprint()
        assert fp == code_fingerprint()
        assert len(fp) == 64
        int(fp, 16)

    def test_content_digest_distinguishes_values(self):
        assert content_digest({"a": 1}) == content_digest({"a": 1})
        assert content_digest({"a": 1}) != content_digest({"a": 2})


class TestRoundTrip:
    def test_cold_then_warm_identical(self, tmp_path):
        cells = [_cell(level=10.0), _cell(level=20.0, index=1)]
        cache = ResultCache(tmp_path)
        with execution_context(ExecutionContext(cache=cache)):
            cold = run_cells(cells)
        assert cache.misses == 2 and cache.hits == 0
        warm_cache = ResultCache(tmp_path)
        with execution_context(ExecutionContext(cache=warm_cache)):
            warm = run_cells(cells)
        assert warm_cache.hits == 2 and warm_cache.misses == 0
        assert warm == cold

    def test_corrupt_entry_is_a_miss_and_recomputed(self, tmp_path):
        cell = _cell()
        cache = ResultCache(tmp_path)
        with execution_context(ExecutionContext(cache=cache)):
            (good,) = run_cells([cell])
        path = cache.path(cell)
        path.write_bytes(b"not a pickle")
        fresh = ResultCache(tmp_path)
        with pytest.warns(ArtifactIntegrityWarning):
            with execution_context(ExecutionContext(cache=fresh)):
                (recomputed,) = run_cells([cell])
        assert fresh.misses == 1
        assert recomputed == good

    def test_truncated_entry_is_evicted_with_warning(self, tmp_path):
        cell = _cell()
        cache = ResultCache(tmp_path)
        cache.put(cell, CellOutcome(value=1.0))
        path = cache.path(cell)
        path.write_bytes(path.read_bytes()[:-5])
        fresh = ResultCache(tmp_path)
        with pytest.warns(ArtifactIntegrityWarning, match="truncated"):
            assert fresh.get(cell) is None
        assert fresh.misses == 1
        assert not path.exists()  # evicted, not left to warn forever
        # The slot is immediately writable again.
        fresh.put(cell, CellOutcome(value=2.0))
        assert fresh.get(cell).value == 2.0

    def test_wrong_schema_entry_is_a_miss(self, tmp_path):
        from repro.perf import integrity

        cell = _cell()
        cache = ResultCache(tmp_path)
        integrity.write_artifact(
            cache.path(cell), CellOutcome(value=1.0),
            schema="repro.other/v99",
        )
        with pytest.warns(ArtifactIntegrityWarning, match="schema"):
            assert cache.get(cell) is None
        assert cache.misses == 1

    def test_missing_entry_is_a_silent_miss(self, tmp_path, recwarn):
        cache = ResultCache(tmp_path)
        assert cache.get(_cell()) is None
        assert cache.misses == 1
        assert len(recwarn) == 0

    def test_put_get_outcome(self, tmp_path):
        cache = ResultCache(tmp_path)
        outcome = CellOutcome(value={"x": 1.0}, events=123)
        cache.put(_cell(), outcome)
        stored = cache.get(_cell())
        assert stored.value == {"x": 1.0}
        assert stored.events == 123


class TestStaleEviction:
    def test_fingerprint_change_invalidates_and_evicts(self, tmp_path):
        cell = _cell()
        old = ResultCache(tmp_path, fingerprint="a" * 64)
        old.put(cell, CellOutcome(value=1))
        assert old.get(cell) is not None
        # "New code": different fingerprint -> miss, old generation gone.
        new = ResultCache(tmp_path, fingerprint="b" * 64)
        assert new.get(cell) is None
        assert new.stats().stale_generations == 0
        assert not (tmp_path / ("a" * 16)).exists()

    def test_evict_stale_disabled_keeps_generations(self, tmp_path):
        old = ResultCache(tmp_path, fingerprint="a" * 64, evict_stale=False)
        old.put(_cell(), CellOutcome(value=1))
        new = ResultCache(tmp_path, fingerprint="b" * 64, evict_stale=False)
        assert new.stats().stale_generations == 1

    def test_clear_removes_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_cell(), CellOutcome(value=1))
        cache.put(_cell(seed=43), CellOutcome(value=2))
        assert cache.clear() == 2
        assert cache.stats().entries == 0


class TestStats:
    def test_stats_counts_and_render(self, tmp_path):
        cache = ResultCache(tmp_path)
        with execution_context(ExecutionContext(cache=cache)):
            run_cells([_cell()])
            run_cells([_cell()])
        stats = cache.stats()
        assert stats.entries == 1
        assert stats.hits == 1 and stats.misses == 1
        assert stats.hit_rate == pytest.approx(0.5)
        assert "entries" in stats.render()


class TestPersistedStats:
    """Regression: ``repro cache stats`` used to always report 0/0,
    because hit/miss counters lived only on the in-process instance."""

    def test_flush_makes_counters_visible_to_fresh_instance(self, tmp_path):
        cache = ResultCache(tmp_path)
        with execution_context(ExecutionContext(cache=cache)):
            run_cells([_cell()])
            run_cells([_cell()])
        cache.flush_stats()
        # The bug: a fresh instance (what the stats subcommand builds)
        # reported hits=0, misses=0 no matter what the cache had done.
        fresh = ResultCache(tmp_path)
        assert fresh.stats().hits == 1
        assert fresh.stats().misses == 1

    def test_flush_accumulates_across_sessions(self, tmp_path):
        for _ in range(2):
            cache = ResultCache(tmp_path)
            with execution_context(ExecutionContext(cache=cache)):
                run_cells([_cell()])
            cache.flush_stats()
        stats = ResultCache(tmp_path).stats()
        assert stats.hits == 1  # second session was all hits
        assert stats.misses == 1  # first session was all misses

    def test_double_flush_does_not_double_count(self, tmp_path):
        cache = ResultCache(tmp_path)
        with execution_context(ExecutionContext(cache=cache)):
            run_cells([_cell()])
        cache.flush_stats()
        cache.flush_stats()
        assert ResultCache(tmp_path).stats().misses == 1

    def test_session_counters_still_session_scoped(self, tmp_path):
        cache = ResultCache(tmp_path)
        with execution_context(ExecutionContext(cache=cache)):
            run_cells([_cell()])
        cache.flush_stats()
        assert cache.hits == 0 and cache.misses == 0
        # stats() folds persisted + session.
        with execution_context(ExecutionContext(cache=cache)):
            run_cells([_cell()])
        assert cache.hits == 1
        assert cache.stats().hits == 1 and cache.stats().misses == 1

    def test_stats_file_not_counted_as_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        with execution_context(ExecutionContext(cache=cache)):
            run_cells([_cell()])
        before = cache.stats()
        cache.flush_stats()
        after = ResultCache(tmp_path).stats()
        assert after.entries == before.entries == 1
        assert after.bytes == before.bytes

    def test_corrupt_stats_file_resets_with_warning(self, tmp_path):
        cache = ResultCache(tmp_path)
        with execution_context(ExecutionContext(cache=cache)):
            run_cells([_cell()])
        cache.flush_stats()
        cache._stats_path.write_bytes(b"scrambled")
        with pytest.warns(ArtifactIntegrityWarning, match="cache stats"):
            stats = ResultCache(tmp_path).stats()
        assert stats.hits == 0 and stats.misses == 0
        assert not cache._stats_path.exists()

    def test_stale_eviction_drops_old_generation_stats(self, tmp_path):
        old = ResultCache(tmp_path, fingerprint="a" * 64)
        old.misses = 5
        old.flush_stats()
        new = ResultCache(tmp_path, fingerprint="b" * 64)
        assert new.stats().misses == 0
