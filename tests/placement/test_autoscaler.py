"""Tests for CloudScale-style vertical scaling."""

from __future__ import annotations

import pytest

from repro.models import TrainingConfig, train_multi_vm_model
from repro.placement.autoscaler import ScalerConfig, VerticalScaler
from repro.sim import Simulator
from repro.workloads import CpuHog, DynamicWorkload
from repro.xen import PhysicalMachine, VMSpec


@pytest.fixture(scope="module")
def model():
    return train_multi_vm_model(
        TrainingConfig(vm_counts=(1, 2, 4), duration=12.0, warmup=2.0)
    )


def make_pm(n_vms=2, seed=81):
    sim = Simulator(seed=seed)
    pm = PhysicalMachine(sim, name="pm1")
    vms = [pm.create_vm(VMSpec(name=f"vm{k}")) for k in range(n_vms)]
    return sim, pm, vms


class TestScalerConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"interval": 0.0},
            {"min_cap_pct": 0.0},
            {"min_cap_pct": 50.0, "max_cap_pct": 10.0},
            {"headroom": 0.5},
            {"capacity_frac": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ScalerConfig(**kwargs)


class TestVerticalScaler:
    def test_caps_track_steady_demand(self, model):
        sim, pm, vms = make_pm()
        CpuHog(40.0).attach(vms[0])
        CpuHog(10.0).attach(vms[1])
        scaler = VerticalScaler(pm, model)
        pm.start()
        scaler.start()
        sim.run_until(30.0)
        caps = scaler.current_caps()
        # Caps sit a little above usage (padding + headroom), and the
        # busier VM gets the larger cap.
        assert 40.0 < caps["vm0"] < 60.0
        assert 10.0 < caps["vm1"] < 25.0
        assert caps["vm0"] > caps["vm1"]

    def test_caps_do_not_throttle_steady_guests(self, model):
        sim, pm, vms = make_pm()
        CpuHog(50.0).attach(vms[0])
        scaler = VerticalScaler(pm, model)
        pm.start()
        scaler.start()
        sim.run_until(30.0)
        # Despite the cap, the guest still receives its full demand, and
        # 35+ points of a static 100 % reservation are freed.
        assert pm.snapshot().vm("vm0").cpu_pct == pytest.approx(50.3, abs=1.0)
        assert scaler.current_caps()["vm0"] < 65.0

    def test_caps_follow_a_ramp(self, model):
        sim, pm, vms = make_pm()
        hog = CpuHog(0.0).attach(vms[0])
        DynamicWorkload(sim, hog, lambda t: min(80.0, 2.0 * t))
        scaler = VerticalScaler(pm, model)
        pm.start()
        scaler.start()
        sim.run_until(15.0)
        early_cap = scaler.current_caps()["vm0"]
        sim.run_until(45.0)
        late_cap = scaler.current_caps()["vm0"]
        assert late_cap > early_cap + 20.0

    def test_conflict_resolution_shrinks_caps(self, model):
        sim, pm, vms = make_pm(n_vms=4, seed=82)
        for vm in vms:
            CpuHog(95.0).attach(vm)
        scaler = VerticalScaler(pm, model)
        pm.start()
        scaler.start()
        sim.run_until(30.0)
        caps = scaler.current_caps()
        assert scaler.conflicts > 0
        # Sum of caps respects the overhead-adjusted budget (~190 * 0.95).
        assert sum(caps.values()) <= 190.0
        for cap in caps.values():
            assert cap >= ScalerConfig().min_cap_pct

    def test_min_cap_keeps_idle_guests_schedulable(self, model):
        sim, pm, vms = make_pm()
        scaler = VerticalScaler(pm, model)
        pm.start()
        scaler.start()
        sim.run_until(10.0)
        for cap in scaler.current_caps().values():
            assert cap >= 5.0

    def test_stop_releases_caps(self, model):
        sim, pm, vms = make_pm()
        CpuHog(30.0).attach(vms[0])
        scaler = VerticalScaler(pm, model)
        pm.start()
        scaler.start()
        sim.run_until(10.0)
        scaler.stop()
        assert all(v is None for v in scaler.current_caps().values())
        # Without release:
        scaler2 = VerticalScaler(pm, model)
        scaler2.start()
        sim.run_until(15.0)
        scaler2.stop(release_caps=False)
        assert any(v is not None for v in scaler2.current_caps().values())

    def test_double_start_rejected(self, model):
        sim, pm, _ = make_pm()
        scaler = VerticalScaler(pm, model)
        pm.start()
        scaler.start()
        with pytest.raises(RuntimeError):
            scaler.start()


class TestCapOverridePlumbing:
    def test_effective_cap_default_is_spec(self):
        from repro.xen import GuestVM

        vm = GuestVM(VMSpec(name="v", cap_pct=40.0))
        assert vm.effective_cap_pct == 40.0
        vm.cap_override_pct = 25.0
        assert vm.effective_cap_pct == 25.0
        vm.cap_override_pct = None
        assert vm.effective_cap_pct == 40.0

    def test_negative_override_rejected(self):
        from repro.xen import GuestVM

        vm = GuestVM(VMSpec(name="v"))
        vm.cap_override_pct = -1.0
        with pytest.raises(ValueError):
            _ = vm.effective_cap_pct

    def test_machine_enforces_override(self):
        sim = Simulator(seed=83)
        pm = PhysicalMachine(sim, name="pm1")
        vm = pm.create_vm(VMSpec(name="v"))
        CpuHog(80.0).attach(vm)
        vm.cap_override_pct = 30.0
        pm.start()
        sim.run_until(5.0)
        assert pm.snapshot().vm("v").cpu_pct == pytest.approx(30.0, abs=0.5)