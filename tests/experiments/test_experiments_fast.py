"""Fast-mode smoke tests for every table/figure reproduction.

These run every experiment at reduced scale and assert the paper's
shape criteria still hold; ``repro all`` repeats them at full paper
scale.
"""

from __future__ import annotations

import pytest

from repro.experiments import runner
from repro.experiments.prediction import trained_models
from repro.experiments.sweeps import microbench_sweep


class TestRegistry:
    def test_all_ids_enumerated(self):
        # 3 tables + figs 2/3/4 (5 each) + fig5 (2) + figs 7/8/9
        # (4 each) + fig6 + fig10 (2) + the four extension artifacts
        # + the two chaos artifacts.
        assert len(runner.ALL_IDS) == 3 + 5 * 3 + 2 + 1 + 4 * 3 + 2 + 4 + 2

    def test_unknown_ids_rejected(self):
        with pytest.raises(KeyError):
            runner.run("fig99a")
        with pytest.raises(KeyError):
            runner.run_group("fig99")
        with pytest.raises(KeyError):
            runner.run("fig2")  # multi-artifact group

    def test_tables_run_directly(self):
        for tid in ("table1", "table2", "table3"):
            assert runner.run(tid).passed, tid


class TestMicrobenchFigures:
    @pytest.mark.parametrize("group", ["fig2", "fig3", "fig4", "fig5", "fig6"])
    def test_group_passes_fast(self, group):
        results = runner.run_group(group, fast=True)
        for res in results:
            assert res.passed, (
                res.experiment_id,
                [c.render() for c in res.failed_checks()],
            )

    def test_single_subfigure_lookup(self):
        res = runner.run("fig2b", fast=True)
        assert res.experiment_id == "fig2b"
        assert res.passed


class TestPredictionFigures:
    @pytest.mark.parametrize("group", ["fig7", "fig8", "fig9"])
    def test_group_passes_fast(self, group):
        results = runner.run_group(group, fast=True)
        assert len(results) == 4
        for res in results:
            assert res.passed, (
                res.experiment_id,
                [c.render() for c in res.failed_checks()],
            )


class TestPlacementFigure:
    def test_fig10_passes_fast(self):
        results = runner.run_group("fig10", fast=True)
        assert [r.experiment_id for r in results] == ["fig10a", "fig10b"]
        for res in results:
            assert res.passed, (
                res.experiment_id,
                [c.render() for c in res.failed_checks()],
            )


class TestSweepHelpers:
    def test_sweep_custom_levels(self):
        sweep = microbench_sweep("cpu", 1, duration=5.0, levels=[10.0, 20.0])
        assert sweep.levels == [10.0, 20.0]
        assert len(sweep.series("dom0", "cpu")) == 2

    def test_sweep_unknown_series(self):
        sweep = microbench_sweep("cpu", 1, duration=5.0, levels=[10.0])
        with pytest.raises(KeyError):
            sweep.series("ghost", "cpu")

    def test_trained_models_cached(self):
        a = trained_models(duration=20.0)
        b = trained_models(duration=20.0)
        assert a[0] is b[0] and a[1] is b[1]
