"""Fleet simulator: pinned bytes, determinism and model shape.

A golden test pins every :class:`FleetSummary` field and the
sanitizer's per-stream RNG draw counts at a small overcommitted scale,
so any change to event order, draw order or float reduction order
shows up as a diff.  Plus the model's headline shape: VOA absorbs the
open-loop load that overloads VOU's overhead-blind packing.
"""

from __future__ import annotations

import pytest

from repro.cluster.fleet import FleetConfig, pm_stream, run_fleet
from repro.placement.placer import VOA, VOU
from repro.sim import sanitize


def _config(strategy: str = VOU, **overrides) -> FleetConfig:
    # Small but overcommitted: VOU packs ~64 * ~15% CPU of guests onto
    # few PMs and overloads; VOA spreads.  Big enough for migrations.
    kwargs = dict(
        pms=8,
        vms=64,
        clients=6_000,
        duration_s=40.0,
        epoch_s=10.0,
        ramp_s=15.0,
        strategy=strategy,
        seed=7,
    )
    kwargs.update(overrides)
    return FleetConfig(**kwargs)


#: The small overcommitted config of the golden test, spelled out in
#: full so the pinned bytes never depend on a helper's defaults.
GOLDEN_CONFIG = dict(
    pms=8, vms=64, clients=6_000, duration_s=40.0, epoch_s=10.0,
    ramp_s=15.0, seed=7,
)

#: ``repr`` of every FleetSummary field at GOLDEN_CONFIG.  VOU's run
#: migrates (8 migrations, 24 messages), so the pin covers the
#: barrier's delivery order as well as the per-tick float reductions.
GOLDEN_FIELDS = {
    VOA: {
        "strategy": "'voa'",
        "seed": "7",
        "pms": "8",
        "vms": "64",
        "epochs": "4",
        "clients": "6000",
        "duration_s": "40.0",
        "pms_used": "7",
        "placed_forced": "0",
        "offered_total": "33846.490665532096",
        "served_total": "33846.490665532096",
        "served_fraction": "1.0",
        "overloaded_pm_ticks": "0",
        "hotspots": "0",
        "migrations": "0",
        "migrations_rejected": "0",
        "epoch_time": "[10.0, 20.0, 30.0, 40.0]",
        "epoch_offered": (
            "[3695.7842574794295, 9498.043997495253, "
            "10278.806863358874, 10373.855547198538]"
        ),
        "epoch_served": (
            "[3695.7842574794295, 9498.043997495253, "
            "10278.806863358874, 10373.855547198538]"
        ),
        "epoch_overloaded": "[0, 0, 0, 0]",
        "epoch_migrations": "[0, 0, 0, 0]",
        "events": "320",
        "messages": "0",
    },
    VOU: {
        "strategy": "'vou'",
        "seed": "7",
        "pms": "8",
        "vms": "64",
        "epochs": "4",
        "clients": "6000",
        "duration_s": "40.0",
        "pms_used": "4",
        "placed_forced": "0",
        "offered_total": "33846.490665532096",
        "served_total": "26306.28420412536",
        "served_fraction": "0.7772233896885098",
        "overloaded_pm_ticks": "119",
        "hotspots": "8",
        "migrations": "8",
        "migrations_rejected": "0",
        "epoch_time": "[10.0, 20.0, 30.0, 40.0]",
        "epoch_offered": (
            "[3695.7842574794295, 9498.043997495253, "
            "10278.806863358874, 10373.85554719854]"
        ),
        "epoch_served": (
            "[3689.580366222314, 7356.549421953294, "
            "7638.880913163916, 7621.273502785838]"
        ),
        "epoch_overloaded": "[1, 38, 40, 40]",
        "epoch_migrations": "[0, 4, 0, 4]",
        "events": "320",
        "messages": "24",
    },
}

#: Per-stream RNG draw counts the sanitizer records at GOLDEN_CONFIG.
GOLDEN_DRAWS = {
    VOA: {
        "fleet.deploy": 3,
        "fleet.pm.00000": 40,
        "fleet.pm.00001": 40,
        "fleet.pm.00002": 40,
        "fleet.pm.00003": 40,
        "fleet.pm.00004": 40,
        "fleet.pm.00005": 40,
        "fleet.pm.00006": 40,
        "fleet.pm.00007": 0,
    },
    VOU: {
        "fleet.deploy": 3,
        "fleet.pm.00000": 40,
        "fleet.pm.00001": 40,
        "fleet.pm.00002": 40,
        "fleet.pm.00003": 40,
        "fleet.pm.00004": 20,
        "fleet.pm.00005": 0,
        "fleet.pm.00006": 0,
        "fleet.pm.00007": 0,
    },
}


def _sanitized_run(config: FleetConfig):
    sanitize.reset_collector()
    with sanitize.sanitized():
        summary = run_fleet(config)
    return summary, dict(sanitize.aggregate_draw_counts())


class TestGolden:
    """Pinned bytes of the small config: every summary field and every
    stream's draw count must stay exactly as recorded."""

    @pytest.mark.parametrize("strategy", [VOA, VOU])
    def test_summary_fields_and_draw_counts_are_pinned(self, strategy):
        config = FleetConfig(strategy=strategy, **GOLDEN_CONFIG)
        summary, counts = _sanitized_run(config)
        for name, expected in GOLDEN_FIELDS[strategy].items():
            assert repr(getattr(summary, name)) == expected, name
        assert counts == GOLDEN_DRAWS[strategy]


class TestDeterminism:
    def test_rng_streams_are_named_per_pm(self):
        config = _config()
        _, counts = _sanitized_run(config)
        for index in range(config.pms):
            assert pm_stream(index) in counts
        assert "fleet.deploy" in counts

    def test_same_seed_same_summary_different_seed_differs(self):
        a = run_fleet(_config()).as_dict()
        b = run_fleet(_config()).as_dict()
        assert a == b
        c = run_fleet(_config(seed=8)).as_dict()
        assert c != a


class TestModelShape:
    def test_voa_serves_what_overloads_vou(self):
        voa = run_fleet(_config(VOA))
        vou = run_fleet(_config(VOU))
        assert voa.served_fraction > vou.served_fraction
        assert vou.overloaded_pm_ticks > voa.overloaded_pm_ticks
        assert vou.migrations > voa.migrations
        assert voa.pms_used > vou.pms_used

    def test_served_never_exceeds_offered(self):
        summary = run_fleet(_config(VOU))
        assert summary.served_total <= summary.offered_total
        for offered, served in zip(
            summary.epoch_offered, summary.epoch_served
        ):
            assert served <= offered + 1e-9

    def test_epoch_series_cover_the_run(self):
        config = _config()
        summary = run_fleet(config)
        assert len(summary.epoch_time) == config.epochs
        assert summary.epoch_time[-1] == pytest.approx(config.duration_s)
        assert summary.events == config.pms * int(
            config.duration_s / config.tick_s
        )

    def test_migration_cap_bounds_each_epoch(self):
        capped = run_fleet(_config(max_migrations_per_epoch=2))
        assert capped.epoch_migrations
        assert max(capped.epoch_migrations) <= 2
        assert capped.migrations_rejected > 0


class TestConfigValidation:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            FleetConfig(strategy="best-effort")

    def test_duration_must_cover_an_epoch(self):
        with pytest.raises(ValueError, match="duration"):
            FleetConfig(duration_s=5.0, epoch_s=10.0)
