"""Tests for fault application against a live cluster."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.faults import (
    KIND_NIC_DEGRADE,
    KIND_PM_CRASH,
    KIND_VM_CRASH,
    KIND_VM_STALL,
    FaultConfig,
    FaultEvent,
    FaultInjector,
)
from repro.sim import Simulator
from repro.workloads import CpuHog
from repro.xen import VMSpec


def make_cluster(seed=23):
    sim = Simulator(seed=seed)
    cl = Cluster(sim)
    cl.create_pm("pm1")
    cl.create_pm("pm2")
    vm = cl.place_vm(VMSpec(name="vm1"), "pm1")
    CpuHog(50.0).attach(vm)
    cl.place_vm(VMSpec(name="vm2"), "pm2")
    cl.start()
    return cl


def inject(cl, events, horizon=60.0):
    inj = FaultInjector(
        cl, FaultConfig(), horizon=horizon, schedule=events
    )
    inj.arm()
    return inj


class TestFaultInjector:
    def test_pm_crash_and_reboot(self):
        cl = make_cluster()
        pm = cl.pms["pm1"]
        inject(cl, [FaultEvent(5.0, KIND_PM_CRASH, "pm1", 10.0)])
        cl.run(6.0)
        assert pm.failed
        snap = pm.snapshot()
        assert snap.pm_cpu_pct == 0.0
        assert snap.dom0_cpu_pct == 0.0
        cl.run(10.0)  # past t=15: rebooted
        assert not pm.failed
        assert pm.snapshot().pm_cpu_pct > 0.0

    def test_vm_stall_zeroes_demand_then_recovers(self):
        cl = make_cluster()
        vm = cl.find_vm("vm1")
        inject(cl, [FaultEvent(5.0, KIND_VM_STALL, "vm1", 4.0)])
        cl.run(6.0)
        assert vm.stalled
        assert vm.cpu_demand_total == 0.0
        cl.run(4.0)
        assert not vm.stalled
        assert vm.cpu_demand_total > 0.0

    def test_vm_crash_resets_demand_state(self):
        cl = make_cluster()
        cl.run(3.0)
        inject(cl, [FaultEvent(2.0, KIND_VM_CRASH, "vm1", 5.0)])
        cl.run(3.0)
        assert cl.find_vm("vm1").stalled

    def test_nic_degradation_applies_and_reverts(self):
        cl = make_cluster()
        nic = cl.pms["pm1"].nic
        inject(cl, [FaultEvent(2.0, KIND_NIC_DEGRADE, "pm1", 6.0)])
        cl.run(3.0)
        assert nic.degraded
        cl.run(6.0)
        assert not nic.degraded

    def test_redundant_fault_skipped(self):
        cl = make_cluster()
        inj = inject(
            cl,
            [
                FaultEvent(2.0, KIND_PM_CRASH, "pm1", 20.0),
                FaultEvent(4.0, KIND_PM_CRASH, "pm1", 20.0),
            ],
        )
        cl.run(6.0)
        assert len(inj.applied) == 1
        assert len(inj.skipped) == 1

    def test_unresolvable_target_skipped(self):
        cl = make_cluster()
        inj = inject(cl, [FaultEvent(2.0, KIND_VM_STALL, "ghost", 5.0)])
        cl.run(3.0)
        assert inj.applied == []
        assert len(inj.skipped) == 1

    def test_stall_follows_migrated_vm(self):
        cl = make_cluster()
        inj = inject(cl, [FaultEvent(5.0, KIND_VM_STALL, "vm1", 4.0)])
        cl.run(2.0)
        cl.migrate_vm("vm1", "pm2")
        cl.run(4.0)
        assert cl.find_vm("vm1").stalled
        assert cl.pm_of("vm1").name == "pm2"
        assert len(inj.applied) == 1

    def test_arm_twice_rejected(self):
        cl = make_cluster()
        inj = inject(cl, [])
        with pytest.raises(RuntimeError):
            inj.arm()

    def test_monitor_gap_during_pm_outage(self):
        from repro.monitor import MeasurementScript

        cl = make_cluster()
        inject(cl, [FaultEvent(5.0, KIND_PM_CRASH, "pm1", 6.0)])
        scripts = {name: MeasurementScript(pm) for name, pm in cl.pms.items()}
        for script in scripts.values():
            script.start()
        cl.run(20.0)
        reports = {name: s.stop() for name, s in scripts.items()}
        assert scripts["pm1"].gap_samples > 0
        assert scripts["pm2"].gap_samples == 0
        rep = reports["pm1"]
        assert rep.validity is not None
        assert rep.n_gaps() == scripts["pm1"].gap_samples
        # Lengths stay aligned with the healthy PM.
        assert len(rep.series("dom0", "cpu").times) == len(
            reports["pm2"].series("dom0", "cpu").times
        )

    def test_generated_schedule_determinism(self):
        def run_once():
            cl = make_cluster(seed=31)
            inj = FaultInjector(
                cl,
                FaultConfig(
                    pm_crash_rate=0.02,
                    vm_stall_rate=0.02,
                    nic_degrade_rate=0.02,
                ),
                horizon=80.0,
            )
            inj.arm()
            cl.run(80.0)
            return [
                (ev.time, ev.kind, ev.target) for ev in inj.applied
            ]

        assert run_once() == run_once()
