"""Integration tests for the unified measurement script."""

from __future__ import annotations

import pytest

from repro.monitor import MeasurementScript
from repro.sim import Simulator
from repro.workloads import CpuHog, PingLoad
from repro.xen import PhysicalMachine, VMSpec


def make_setup(n_vms=1, seed=7):
    sim = Simulator(seed=seed)
    pm = PhysicalMachine(sim, name="pm1")
    vms = [pm.create_vm(VMSpec(name=f"vm{k}")) for k in range(n_vms)]
    pm.start()
    return sim, pm, vms


class TestMeasurementScript:
    def test_produces_all_trace_names(self):
        sim, pm, vms = make_setup(2)
        report = MeasurementScript(pm).run(duration=10.0)
        names = set(report.traces.names)
        for entity in ("vm0", "vm1", "dom0", "pm"):
            for res in ("cpu", "mem", "io", "bw"):
                assert f"{entity}.{res}" in names
        assert "hyp.cpu" in names

    def test_sample_count_matches_duration(self):
        sim, pm, _ = make_setup()
        report = MeasurementScript(pm, interval=1.0).run(duration=120.0)
        assert len(report.series("dom0", "cpu")) == 120

    def test_mean_tracks_machine_state(self):
        sim, pm, vms = make_setup()
        CpuHog(60.0).attach(vms[0])
        report = MeasurementScript(pm).run(duration=30.0)
        assert report.mean("vm0", "cpu") == pytest.approx(60.3, abs=0.5)
        assert report.mean("dom0", "cpu") > 16.8

    def test_pm_cpu_is_sum_of_components(self):
        sim, pm, vms = make_setup(2)
        CpuHog(40.0).attach(vms[0])
        report = MeasurementScript(pm, noiseless=True).run(duration=20.0)
        total = (
            report.mean("dom0", "cpu")
            + report.mean("hyp", "cpu")
            + report.mean("vm0", "cpu")
            + report.mean("vm1", "cpu")
        )
        assert report.mean("pm", "cpu") == pytest.approx(total, rel=1e-9)

    def test_pm_mem_is_dom0_plus_guests(self):
        sim, pm, vms = make_setup(2)
        report = MeasurementScript(pm, noiseless=True).run(duration=5.0)
        total = (
            report.mean("dom0", "mem")
            + report.mean("vm0", "mem")
            + report.mean("vm1", "mem")
        )
        assert report.mean("pm", "mem") == pytest.approx(total, rel=1e-9)

    def test_noise_averages_out_over_two_minutes(self):
        sim, pm, vms = make_setup()
        CpuHog(90.0).attach(vms[0])
        noisy = MeasurementScript(pm).run(duration=120.0)
        # 120-sample mean is within 0.5 % of truth.
        assert noisy.mean("vm0", "cpu") == pytest.approx(90.3, rel=0.005)
        # The sampling adds noise, not bias: Dom0's mean matches the
        # machine's converged analytic state.
        assert noisy.mean("dom0", "cpu") == pytest.approx(
            pm.snapshot().dom0_cpu_pct, rel=0.01
        )

    def test_bw_measurement(self):
        sim, pm, vms = make_setup()
        PingLoad(1280.0).attach(vms[0])
        report = MeasurementScript(pm).run(duration=20.0)
        assert report.mean("vm0", "bw") == pytest.approx(1280.0, rel=0.01)
        assert report.mean("pm", "bw") == pytest.approx(1285.0, rel=0.01)
        assert report.mean("dom0", "bw") == 0.0

    def test_entities_listing(self):
        sim, pm, _ = make_setup(2)
        report = MeasurementScript(pm).run(duration=3.0)
        assert report.entities() == ["dom0", "hyp", "pm", "vm0", "vm1"]

    def test_start_stop_manual(self):
        sim, pm, _ = make_setup()
        script = MeasurementScript(pm)
        script.start()
        sim.run_until(5.0)
        report = script.stop()
        assert len(report.series("pm", "cpu")) == 5

    def test_double_start_rejected(self):
        sim, pm, _ = make_setup()
        script = MeasurementScript(pm)
        script.start()
        with pytest.raises(RuntimeError):
            script.start()

    def test_stop_without_start_rejected(self):
        sim, pm, _ = make_setup()
        with pytest.raises(RuntimeError):
            MeasurementScript(pm).stop()

    def test_bad_parameters(self):
        sim, pm, _ = make_setup()
        with pytest.raises(ValueError):
            MeasurementScript(pm, interval=0.0)
        with pytest.raises(ValueError):
            MeasurementScript(pm, interval=2.0).run(duration=1.0)

    def test_restart_clears_previous_samples(self):
        sim, pm, _ = make_setup()
        script = MeasurementScript(pm)
        script.start()
        sim.run_until(5.0)
        script.stop()
        script.start()
        sim.run_until(8.0)
        report = script.stop()
        assert len(report.series("pm", "cpu")) == 3
