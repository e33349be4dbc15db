"""Fast-vs-reference parity: both paths must be bitwise identical.

The fast paths (the precompiled monitor sampling plan, the steady-state
quantum memo, the batched event drain) are only admissible because they
reproduce the reference implementations *bit for bit*.  These tests
compare whole simulated cells with exact float equality --
``pytest.approx`` would hide exactly the bugs this suite exists to
catch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.perf.cells import MicrobenchCell
from repro.sim import fastpath
from repro.xen.scheduler import weighted_water_fill


class TestWaterFill:
    def test_conservation_and_bounds_at_forty_clients(self):
        rng = np.random.default_rng(40_000)
        limit = rng.uniform(0.0, 100.0, size=40).tolist()
        weights = [float(int(w) + 1) for w in rng.uniform(0.5, 8.0, size=40)]
        capacity = float(rng.uniform(0.0, 1.2) * sum(limit))
        granted = weighted_water_fill(limit, weights, capacity)
        assert sum(granted) <= capacity + 1e-9
        assert all(g <= lim + 1e-9 for g, lim in zip(granted, limit))


class TestCellParity:
    """Whole simulated cells: engine drain + scheduler + monitor plan.

    One cell per benchmark kind covers the monitor's precompiled
    sampling plan (every tool/resource series), the steady-state
    quantum memo, and the batched drain in one assertion: the full
    means dict and the dispatched-event count must match the scalar
    reference run exactly.
    """

    @pytest.mark.parametrize(
        "kind", ("cpu", "mem", "io", "bw", "bw-intra")
    )
    def test_cell_fast_vs_slowpath_bitwise(self, kind):
        def run():
            cell = MicrobenchCell(
                kind=kind, n_vms=2, level=25.0, index=0,
                duration=6.0, seed=42,
            )
            return cell.run()

        fast_value, fast_events = run()
        with fastpath.force_slowpath():
            slow_value, slow_events = run()
        assert fast_value == slow_value
        assert fast_events == slow_events
