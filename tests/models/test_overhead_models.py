"""End-to-end tests for the single-VM and multi-VM overhead models.

The pivotal property: trained on (short) micro-benchmark sweeps, the
models must predict held-out mixed workloads within a few percent --
that is the paper's Section VI-A claim in miniature.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import (
    MultiVMOverheadModel,
    SingleVMOverheadModel,
    TrainingConfig,
    alpha_constant,
    alpha_linear,
    error_report,
    gather_training_samples,
    run_benchmark_measurement,
    samples_from_report,
    train_multi_vm_model,
    train_single_vm_model,
)
from repro.monitor import MeasurementScript
from repro.monitor.metrics import ResourceVector
from repro.sim import Simulator
from repro.workloads import CpuHog, PingLoad
from repro.xen import PhysicalMachine, VMSpec

# Short sweeps keep the test suite fast; ``repro all`` runs the full
# 120 s / 1-2-4-VM grids.
FAST_SINGLE = TrainingConfig(vm_counts=(1,), duration=15.0, warmup=2.0)
FAST_MULTI = TrainingConfig(vm_counts=(1, 2), duration=15.0, warmup=2.0)


@pytest.fixture(scope="module")
def single_model() -> SingleVMOverheadModel:
    return train_single_vm_model(FAST_SINGLE)


@pytest.fixture(scope="module")
def multi_model() -> MultiVMOverheadModel:
    return train_multi_vm_model(FAST_MULTI)


class TestSingleVMModel:
    def test_intercepts_capture_idle_overhead(self, single_model):
        # a_o for dom0.cpu should be near the 16.8 % baseline, hyp near 3.
        dom0 = single_model.coefficients("dom0.cpu")
        hyp = single_model.coefficients("hyp.cpu")
        assert dom0.intercept == pytest.approx(16.8, abs=1.0)
        assert hyp.intercept == pytest.approx(3.0, abs=1.0)

    def test_io_coefficient_near_amplification(self, single_model):
        # pm.io ~ 2.05 * vm.io + floor.
        m = single_model.coefficients("pm.io")
        assert m.coef[2] == pytest.approx(2.05, abs=0.1)
        assert m.intercept == pytest.approx(18.8, abs=1.0)

    def test_bw_coefficient_near_unity(self, single_model):
        m = single_model.coefficients("pm.bw")
        assert m.coef[3] == pytest.approx(1.0, abs=0.05)

    def test_coefficient_matrix_shape(self, single_model):
        a = single_model.coefficient_matrix()
        assert a.shape == (5, 5)  # 5 targets x [a_o, a_c, a_m, a_i, a_n]

    def test_predicts_held_out_cpu_point(self, single_model):
        # 45 % CPU was never in the Table II grid.  The linear Eq. (1)
        # model carries an intrinsic interpolation error on the *convex*
        # Dom0/hypervisor response curves (a limitation the paper's own
        # higher PM2 errors reflect), so per-target bounds differ: the
        # PM-level prediction is diluted by the guest CPU term and must
        # stay tight.
        report = run_benchmark_measurement(
            "cpu", 45.0, 1, duration=15.0, seed=777, warmup=2.0
        )
        samples = samples_from_report(report)
        pred = single_model.predict_many(
            np.vstack([s.vm_sum.as_array() for s in samples])
        )
        bounds = {"dom0.cpu": 16.0, "hyp.cpu": 25.0, "pm.cpu": 7.0}
        for target, bound in bounds.items():
            if target == "pm.cpu":
                measured = np.array(
                    [
                        s.targets["dom0.cpu"]
                        + s.targets["hyp.cpu"]
                        + s.vm_sum.cpu
                        for s in samples
                    ]
                )
            else:
                measured = np.array([s.targets[target] for s in samples])
            rep = error_report(pred[target], measured)
            assert rep.p90 < bound, (target, rep.p90)

    def test_predict_single_vector(self, single_model):
        pred = single_model.predict(ResourceVector(cpu=60.0, mem=130.0))
        assert 16.8 < pred.dom0_cpu < 29.5
        assert pred.pm_cpu == pytest.approx(
            pred.dom0_cpu + pred.hyp_cpu + 60.0
        )
        assert pred.get("pm.cpu") == pred.pm_cpu
        with pytest.raises(ValueError):
            pred.get("nope.cpu")

    def test_rejects_multi_vm_samples(self):
        report = run_benchmark_measurement(
            "cpu", 30.0, 2, duration=6.0, seed=1, warmup=1.0
        )
        samples = samples_from_report(report)
        with pytest.raises(ValueError, match="n_vms"):
            SingleVMOverheadModel.fit(samples)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SingleVMOverheadModel.fit([])

    def test_unknown_target_access(self, single_model):
        with pytest.raises(ValueError):
            single_model.coefficients("gpu.cpu")

    def test_predict_many_validates_shape(self, single_model):
        with pytest.raises(ValueError):
            single_model.predict_many(np.ones((3, 3)))


class TestMultiVMModel:
    def test_needs_two_vm_counts(self):
        report = run_benchmark_measurement(
            "cpu", 30.0, 2, duration=6.0, seed=1, warmup=1.0
        )
        samples = samples_from_report(report)
        with pytest.raises(ValueError, match="distinct VM counts"):
            MultiVMOverheadModel.fit(samples)

    def test_coefficient_rows(self, multi_model):
        a = multi_model.base_coefficients("dom0.cpu")
        o = multi_model.colocation_coefficients("dom0.cpu")
        assert a.shape == (5,)
        assert o.shape == (5,)

    def test_alpha_variants(self):
        assert alpha_linear(1) == 0.0
        assert alpha_linear(2) == 1.0
        assert alpha_linear(4) == 3.0
        assert alpha_constant(1) == 0.0
        assert alpha_constant(4) == 1.0

    def test_linear_alpha_is_adequate_on_held_out_three_vms(self):
        # The paper assumes alpha(N) linear in N.  Trained on 1/2/4 VMs
        # and scored on an unseen 3-VM mix, the linear form predicts
        # Dom0 CPU well and does not lose to a constant alpha.
        train = gather_training_samples(
            TrainingConfig(vm_counts=(1, 2, 4), duration=40.0, warmup=3.0)
        )
        sim = Simulator(seed=404)
        pm = PhysicalMachine(sim, name="pm1")
        vms = [pm.create_vm(VMSpec(name=f"vm{k}")) for k in range(3)]
        CpuHog(40.0).attach(vms[0])
        CpuHog(25.0).attach(vms[1])
        PingLoad(900.0).attach(vms[2])
        pm.start()
        sim.run_until(3.0)
        held_out = samples_from_report(MeasurementScript(pm).run(duration=60.0))
        measured = np.array([s.targets["dom0.cpu"] for s in held_out])

        def p90(alpha):
            model = MultiVMOverheadModel.fit(train, alpha=alpha)
            pred = model.predict_samples(held_out)["dom0.cpu"]
            return error_report(pred, measured).p90

        linear = p90(alpha_linear)
        assert linear < 10.0
        assert linear <= p90(alpha_constant) + 1.0

    def test_predicts_held_out_two_vm_mix(self, multi_model):
        # Mixed workload (CPU hog + network load), never in training.
        sim = Simulator(seed=555)
        pm = PhysicalMachine(sim, name="pm1")
        vm_a = pm.create_vm(VMSpec(name="a"))
        vm_b = pm.create_vm(VMSpec(name="b"))
        CpuHog(40.0).attach(vm_a)
        PingLoad(800.0).attach(vm_b)
        pm.start()
        sim.run_until(2.0)
        report = MeasurementScript(pm).run(duration=15.0)
        samples = samples_from_report(report)
        pred = multi_model.predict_samples(samples)
        for target in ("dom0.cpu", "hyp.cpu", "pm.bw"):
            measured = np.array([s.targets[target] for s in samples])
            rep = error_report(pred[target], measured)
            assert rep.p90 < 8.0, (target, rep.p90)

    def test_predict_interface(self, multi_model):
        pred = multi_model.predict(
            [ResourceVector(cpu=30.0), ResourceVector(cpu=30.0)]
        )
        assert pred.pm_cpu == pytest.approx(
            pred.dom0_cpu + pred.hyp_cpu + 60.0
        )
        with pytest.raises(ValueError):
            multi_model.predict([])

    def test_predict_samples_rejects_empty(self, multi_model):
        with pytest.raises(ValueError):
            multi_model.predict_samples([])

    def test_model_learns_colocation_batching_discount(self, multi_model):
        # Splitting the same total CPU load across two guests *lowers*
        # Dom0 control cost in the substrate (event-channel batching);
        # the ground truth is ~17.9 % for 2x20 % vs ~19.1 % for 1x40 %.
        # The fitted o coefficients must capture that discount.
        one = multi_model.predict([ResourceVector(cpu=40.0)])
        two = multi_model.predict(
            [ResourceVector(cpu=20.0), ResourceVector(cpu=20.0)]
        )
        assert two.dom0_cpu < one.dom0_cpu
        assert two.dom0_cpu == pytest.approx(17.9, abs=1.5)


class TestTrainingPipeline:
    def test_gather_produces_expected_count(self):
        cfg = TrainingConfig(
            kinds=("cpu",), vm_counts=(1,), duration=8.0, warmup=2.0
        )
        samples = gather_training_samples(cfg)
        # 5 levels x 6 one-second samples each.
        assert len(samples) == 5 * 6
        assert all(s.n_vms == 1 for s in samples)

    def test_progress_callback(self):
        seen = []
        cfg = TrainingConfig(
            kinds=("io",), vm_counts=(1,), duration=5.0, warmup=1.0
        )
        gather_training_samples(cfg, progress=seen.append)
        assert len(seen) == 5
        assert "io" in seen[0]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(duration=1.0, warmup=2.0)
        with pytest.raises(ValueError):
            TrainingConfig(kinds=())
        with pytest.raises(ValueError):
            TrainingConfig(vm_counts=(0,))
