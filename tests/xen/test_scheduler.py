"""Tests for the credit scheduler: fluid limit and discrete engine."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xen.scheduler import (
    ACCOUNTING_PERIOD,
    CreditScheduler,
    fair_share,
    weighted_water_fill,
)


class TestWaterFill:
    def test_no_contention_grants_demand(self):
        got = weighted_water_fill([10, 20, 30], [1, 1, 1], 100)
        assert got == pytest.approx([10, 20, 30])

    def test_equal_weights_split_equally_under_contention(self):
        got = weighted_water_fill([100, 100], [1, 1], 100)
        assert got == pytest.approx([50, 50])

    def test_weights_bias_the_split(self):
        got = weighted_water_fill([100, 100], [3, 1], 100)
        assert got == pytest.approx([75, 25])

    def test_unused_share_redistributes(self):
        # Client 0 only wants 10; its leftover goes to client 1.
        got = weighted_water_fill([10, 100], [1, 1], 100)
        assert got == pytest.approx([10, 90])

    def test_cap_binds_before_demand(self):
        got = weighted_water_fill([100, 100], [1, 1], 200, caps=[30, 0])
        assert got == pytest.approx([30, 100])

    def test_zero_cap_means_uncapped(self):
        got = weighted_water_fill([80], [1], 100, caps=[0])
        assert got == pytest.approx([80])

    def test_zero_capacity(self):
        assert weighted_water_fill([10, 10], [1, 1], 0) == pytest.approx([0, 0])

    def test_empty_inputs(self):
        assert weighted_water_fill([], [], 100) == []

    def test_paper_saturation_shares(self):
        # After the hypervisor (12) and Dom0 (23.4) are served from the
        # 225-point effective capacity, 2 and 4 saturated guests settle
        # at the paper's 95 % / 47 % points.
        remaining = 225.0 - 12.0 - 23.4
        two = weighted_water_fill([100, 100], [256, 256], remaining)
        assert two == pytest.approx([94.8, 94.8], abs=0.1)
        four = weighted_water_fill([100] * 4, [256] * 4, remaining)
        assert four == pytest.approx([47.4] * 4, abs=0.1)

    @pytest.mark.parametrize(
        "demands,weights,capacity,caps",
        [
            ([1], [1, 2], 10, None),
            ([1, 2], [1], 10, None),
            ([1], [1], -5, None),
            ([-1], [1], 10, None),
            ([1], [0], 10, None),
            ([1, 2], [1, 1], 10, [1]),
        ],
    )
    def test_input_validation(self, demands, weights, capacity, caps):
        with pytest.raises(ValueError):
            weighted_water_fill(demands, weights, capacity, caps)


class TestWaterFillProperties:
    @given(
        st.lists(st.floats(min_value=0, max_value=200), min_size=1, max_size=12),
        st.floats(min_value=0, max_value=500),
    )
    def test_feasibility_and_demand_bounds(self, demands, capacity):
        got = weighted_water_fill(demands, [1.0] * len(demands), capacity)
        assert sum(got) <= capacity + 1e-6
        for g, d in zip(got, demands):
            assert -1e-9 <= g <= d + 1e-9

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=200),
                st.floats(min_value=0.1, max_value=10),
            ),
            min_size=1,
            max_size=10,
        ),
        st.floats(min_value=0, max_value=400),
    )
    def test_work_conservation(self, pairs, capacity):
        demands = [p[0] for p in pairs]
        weights = [p[1] for p in pairs]
        got = weighted_water_fill(demands, weights, capacity)
        # Either all demand is met or capacity is exhausted.
        slack_left = sum(demands) - sum(got)
        cap_left = capacity - sum(got)
        assert slack_left < 1e-6 or cap_left < 1e-6

    @given(
        st.lists(st.floats(min_value=0, max_value=100), min_size=2, max_size=8),
        st.floats(min_value=1, max_value=300),
    )
    def test_max_min_fairness_no_envy(self, demands, capacity):
        # Equal weights: a client granted less than another must have had
        # its demand fully met (no one is starved below a peer's share).
        got = weighted_water_fill(demands, [1.0] * len(demands), capacity)
        for i in range(len(got)):
            for j in range(len(got)):
                if got[i] < got[j] - 1e-6:
                    assert got[i] >= demands[i] - 1e-6

    @given(
        st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=8)
    )
    def test_ample_capacity_grants_everything(self, demands):
        got = weighted_water_fill(demands, [1.0] * len(demands), sum(demands) + 1)
        assert got == pytest.approx(demands)


class TestCreditScheduler:
    def test_single_vcpu_gets_demand(self):
        cs = CreditScheduler(ncpus=4)
        cs.add_vcpu("v0", demand_frac=0.6)
        got = cs.run(3.0)
        assert got["v0"] == pytest.approx(60.0, abs=2.0)

    def test_contention_splits_by_weight(self):
        cs = CreditScheduler(ncpus=1)
        cs.add_vcpu("a", weight=256, demand_frac=1.0)
        cs.add_vcpu("b", weight=256, demand_frac=1.0)
        got = cs.run(3.0)
        assert got["a"] == pytest.approx(50.0, abs=5.0)
        assert got["b"] == pytest.approx(50.0, abs=5.0)

    def test_cap_is_enforced(self):
        cs = CreditScheduler(ncpus=4)
        cs.add_vcpu("capped", cap_pct=25.0, demand_frac=1.0)
        got = cs.run(3.0)
        assert got["capped"] == pytest.approx(25.0, abs=2.0)

    def test_work_conserving_with_idle_peer(self):
        cs = CreditScheduler(ncpus=1)
        cs.add_vcpu("busy", demand_frac=1.0)
        cs.add_vcpu("idle", demand_frac=0.1)
        got = cs.run(3.0)
        assert got["idle"] == pytest.approx(10.0, abs=2.0)
        assert got["busy"] == pytest.approx(90.0, abs=4.0)

    def test_matches_fluid_limit_on_paper_scenario(self):
        # 4 saturated single-VCPU guests on ~1.9 schedulable cores: the
        # discrete engine should land near the water-fill split.
        cs = CreditScheduler(ncpus=2)
        for k in range(4):
            cs.add_vcpu(f"v{k}", demand_frac=0.95)
        got = cs.run(6.0)
        fluid = weighted_water_fill([95.0] * 4, [256.0] * 4, 200.0)
        for k in range(4):
            assert got[f"v{k}"] == pytest.approx(fluid[k], abs=6.0)

    def test_duplicate_name_rejected(self):
        cs = CreditScheduler()
        cs.add_vcpu("v")
        with pytest.raises(ValueError):
            cs.add_vcpu("v")

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            CreditScheduler(ncpus=0)
        with pytest.raises(ValueError):
            CreditScheduler(slice_s=0.0)
        with pytest.raises(ValueError):
            CreditScheduler(slice_s=ACCOUNTING_PERIOD * 2)

    def test_run_requires_positive_horizon(self):
        cs = CreditScheduler()
        cs.add_vcpu("v")
        with pytest.raises(ValueError):
            cs.run(0.0)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6
        )
    )
    def test_never_exceeds_capacity_or_demand(self, fracs):
        cs = CreditScheduler(ncpus=2)
        for k, f in enumerate(fracs):
            cs.add_vcpu(f"v{k}", demand_frac=f)
        got = cs.run(1.5)
        assert sum(got.values()) <= 200.0 + 1e-6
        for k, f in enumerate(fracs):
            assert got[f"v{k}"] <= f * 100.0 + 2.0


class TestFairShare:
    def test_splits_equally_without_redistribution(self):
        # The naive ablation baseline deliberately strands unused share.
        got = fair_share([10, 100], 100)
        assert got == pytest.approx([10, 50])

    def test_empty(self):
        assert fair_share([], 100) == []

    def test_strands_dom0_slice_on_paper_scenario(self):
        # Two saturated guests plus Dom0 (23.4) share what the
        # hypervisor (12) leaves of 225 points.  Water-fill hands Dom0's
        # unused share to the guests (the paper's 95 %); an equal split
        # strands it and misses the anchor.
        demands = [100.0, 100.0, 23.4]
        wf = weighted_water_fill(demands, [1, 1, 1], 225.0 - 12.0)
        fs = fair_share(demands, 225.0 - 12.0)
        assert wf[0] == pytest.approx(94.8, abs=0.5)
        assert fs[0] == pytest.approx(71.0, abs=0.5)
        assert sum(fs) < sum(wf) - 40.0
