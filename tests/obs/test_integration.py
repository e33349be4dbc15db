"""End-to-end observability: experiments, executor merge, CLI, placement.

The two load-bearing guarantees:

* **Byte identity** -- attaching a collector never changes what a run
  computes or writes; disabling it leaves artifacts byte-identical.
* **Process transparency** -- a ``--jobs N`` run reports the same
  deterministic counters and span census a serial run would, because
  worker cells snapshot their scoped collector into the outcome and
  the parent merges it.
"""

from __future__ import annotations

from repro.cli import main
from repro.obs import runtime
from repro.obs.export import load_obs_dir
from repro.obs.registry import KIND_COUNTER
from repro.perf.cells import MicrobenchCell
from repro.perf.executor import ExecutionContext, execution_context, run_cells


def _cells(n=3):
    return [
        MicrobenchCell(
            kind="cpu", n_vms=1, level=20.0 + 10 * i, index=i,
            duration=3.0, seed=42,
        )
        for i in range(n)
    ]


def _counter_values(collector):
    out = {}
    for name, kind, _help, children in collector.metrics.families():
        if kind == KIND_COUNTER:
            for key, child in children:
                out[(name, key)] = child.value
    return out


class TestExperimentCoverage:
    def test_fig5a_spans_cover_required_sources(self):
        from repro.experiments import runner

        with runtime.collecting() as collector:
            runner.run("fig5a", fast=True)
        sources = set(collector.spans.sources())
        assert {"sim", "executor", "supervisor", "monitor"} <= sources
        counters = _counter_values(collector)
        assert counters[("repro_sim_events_total", ())] > 0

    def test_observed_run_matches_unobserved_run(self):
        from repro.experiments import runner

        plain = runner.run("fig5a", fast=True)
        with runtime.collecting():
            observed = runner.run("fig5a", fast=True)
        assert observed.series == plain.series
        assert observed.render() == plain.render()


class TestSameCodePath:
    """Observation listens; it never chooses which code runs."""

    @staticmethod
    def _steady_run():
        from repro.monitor import MeasurementScript
        from repro.sim import Simulator
        from repro.workloads import CpuHog
        from repro.xen import PhysicalMachine, VMSpec

        sim = Simulator(seed=7)
        pm = PhysicalMachine(sim, name="pm1")
        CpuHog(60.0).attach(pm.create_vm(VMSpec(name="vm0")))
        pm.start()
        report = MeasurementScript(pm).run(duration=30.0)
        quanta = round(sim.now / pm.quantum)
        traces = {
            name: report.traces[name].values.tobytes()
            for name in report.traces.names
        }
        return quanta, traces, report.validity

    def test_memo_and_fast_plan_stay_on_under_obs(self, monkeypatch):
        from repro.monitor import MeasurementScript

        plain = self._steady_run()

        def slow(self, now):
            raise AssertionError("observed run took the reference path")

        monkeypatch.setattr(MeasurementScript, "_sample_slow", slow)
        with runtime.collecting() as collector:
            observed = self._steady_run()
        quanta = observed[0]
        counters = _counter_values(collector)
        assert counters[("repro_sched_water_fill_total", ())] < quanta
        assert counters[
            ("repro_monitor_ticks_total", (("pm", "pm1"),))
        ] == 30
        assert observed == plain


class TestExecutorMerge:
    def test_pool_counters_match_serial(self):
        cells = _cells()
        with runtime.collecting() as serial:
            serial_out = run_cells(cells)
        with runtime.collecting() as pooled:
            with execution_context(ExecutionContext(jobs=2)):
                pooled_out = run_cells(cells)
        assert pooled_out == serial_out
        assert _counter_values(pooled) == _counter_values(serial)
        assert len(pooled.spans) == len(serial.spans)

    def test_cache_hit_counters(self, tmp_path):
        from repro.perf.cache import ResultCache

        cells = _cells()
        cache = ResultCache(tmp_path)
        with runtime.collecting() as collector:
            with execution_context(ExecutionContext(cache=cache)):
                run_cells(cells)
                run_cells(cells)
        counters = _counter_values(collector)
        hits = sum(
            v for (name, _), v in counters.items()
            if name == "repro_executor_cache_hits_total"
        )
        misses = sum(
            v for (name, _), v in counters.items()
            if name == "repro_executor_cache_misses_total"
        )
        assert misses == len(cells)
        assert hits == len(cells)

    def test_cached_outcomes_still_merge_spans(self, tmp_path):
        from repro.perf.cache import ResultCache

        cells = _cells()
        with runtime.collecting():
            with execution_context(ExecutionContext(
                cache=ResultCache(tmp_path),
            )):
                run_cells(cells)
        with runtime.collecting() as warm:
            with execution_context(ExecutionContext(
                cache=ResultCache(tmp_path),
            )):
                run_cells(cells)
        # Cached cells replay the spans their original execution
        # recorded (shipped inside the outcome snapshot).
        assert "sim" in warm.spans.sources()


class TestPlacementCoverage:
    def test_control_loop_emits_placement_spans(self):
        from repro.cluster import Cluster
        from repro.models import TrainingConfig, train_multi_vm_model
        from repro.placement import ResilientControlLoop
        from repro.sim import Simulator
        from repro.workloads import CpuHog
        from repro.xen import VMSpec

        model = train_multi_vm_model(
            TrainingConfig(vm_counts=(1, 2), duration=6.0, warmup=2.0)
        )
        sim = Simulator(seed=13)
        cl = Cluster(sim)
        cl.create_pm("pm1")
        cl.create_pm("pm2")
        vm = cl.place_vm(VMSpec(name="vm0", mem_mb=256), "pm1")
        CpuHog(50.0).attach(vm)
        cl.start()
        with runtime.collecting() as collector:
            loop = ResilientControlLoop(cl, model, interval=2.0)
            loop.start()
            cl.run(10.0)
        spans = collector.spans.spans(source="placement")
        assert len(spans) == loop.rounds > 0
        assert spans[0].sim_elapsed is not None
        counters = _counter_values(collector)
        assert counters[
            ("repro_placement_rounds_total", ())
        ] == loop.rounds


class TestCliObs:
    def test_obs_dir_export_and_byte_identity(self, tmp_path, capsys):
        plain_out = tmp_path / "plain"
        obs_out = tmp_path / "observed"
        obs_dir = tmp_path / "obs"
        assert main(
            ["run", "fig5a", "--fast", "--out", str(plain_out)]
        ) == 0
        assert main(
            ["run", "fig5a", "--fast", "--out", str(obs_out),
             "--obs-dir", str(obs_dir)]
        ) == 0
        err = capsys.readouterr().err
        assert "observability: wrote" in err
        for name in ("fig5a.txt", "fig5a.csv"):
            assert (obs_out / name).read_bytes() == (
                plain_out / name
            ).read_bytes()
        metrics, spans, summary = load_obs_dir(obs_dir)
        assert {"sim", "executor", "supervisor", "monitor"} <= set(
            summary["span_sources"]
        )
        assert spans
        # The collector is torn down after export: later runs in this
        # process record nothing.
        assert runtime.installed() is None

    def test_obs_summary_and_require(self, tmp_path, capsys):
        obs_dir = tmp_path / "obs"
        main(["run", "fig5a", "--fast", "--obs-dir", str(obs_dir),
              "--out", str(tmp_path / "o")])
        capsys.readouterr()
        assert main(
            ["obs", "summary", "--obs-dir", str(obs_dir),
             "--require", "sim,executor,monitor"]
        ) == 0
        assert "span sources:" in capsys.readouterr().out
        assert main(
            ["obs", "summary", "--obs-dir", str(obs_dir),
             "--require", "sim,teapot"]
        ) == 1
        assert "teapot" in capsys.readouterr().err

    def test_obs_spans_and_export(self, tmp_path, capsys):
        obs_dir = tmp_path / "obs"
        main(["run", "fig5a", "--fast", "--obs-dir", str(obs_dir),
              "--out", str(tmp_path / "o")])
        capsys.readouterr()
        assert main(
            ["obs", "spans", "--obs-dir", str(obs_dir), "--source", "sim"]
        ) == 0
        captured = capsys.readouterr()
        assert "sim:" in captured.out
        assert main(["obs", "export", "--obs-dir", str(obs_dir)]) == 0
        assert capsys.readouterr().out.endswith("# EOF\n")

    def test_obs_on_missing_dir_is_usage_error(self, tmp_path, capsys):
        assert main(
            ["obs", "summary", "--obs-dir", str(tmp_path / "nope")]
        ) == 2
        assert "error:" in capsys.readouterr().err
