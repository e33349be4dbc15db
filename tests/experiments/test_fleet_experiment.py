"""Fleet experiment artifacts and the ``repro fleet`` CLI.

The experiment layer must build both panels with passing shape
checks, the rendered artifacts must be byte-identical serial vs
``--jobs``, and the CLI must wire the scale knobs, the perf options and
the exit-code contract like the other experiment commands.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.experiments.fleet import run_fleet_experiment

#: Small overcommitted scale (mirrors tests/cluster/test_fleet.py):
#: VOU overloads and migrates, VOA absorbs the load -- every shape
#: check is exercised for real in a few seconds.
SMALL = dict(
    pms=8, vms=64, clients=6_000, duration_s=40.0, trials=1, seed=7
)

SMALL_ARGS = [
    "--pms", "8", "--vms", "64", "--clients", "6000",
    "--duration", "40", "--trials", "1", "--seed", "7",
]


class TestExperiment:
    def test_panels_pass_shape_checks(self):
        results = run_fleet_experiment(**SMALL)
        assert [r.experiment_id for r in results] == ["fleeta", "fleetb"]
        for result in results:
            assert result.passed, result.render()

    def test_series_cover_every_epoch(self):
        fleeta, fleetb = run_fleet_experiment(**SMALL)
        epochs = 4  # 40 s / 10 s epochs
        for series in fleeta.series + fleetb.series:
            assert len(series.x) == epochs
            assert len(series.y) == epochs

    def test_offered_bounds_served(self):
        fleeta, _ = run_fleet_experiment(**SMALL)
        offered = dict(zip(fleeta.series[0].x, fleeta.series[0].y))
        for label_idx in (1, 2):  # VOA served, VOU served
            series = fleeta.series[label_idx]
            for x, y in zip(series.x, series.y):
                assert y <= offered[x] + 1e-9

    def test_invalid_scale_raises(self):
        with pytest.raises(ValueError):
            run_fleet_experiment(**{**SMALL, "pms": 0})


class TestCli:
    def test_fleet_writes_artifacts_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert main(["fleet", *SMALL_ARGS, "--out", str(out)]) == 0
        for artifact in ("fleeta", "fleetb"):
            assert (out / f"{artifact}.txt").is_file()
            assert (out / f"{artifact}.csv").is_file()
        assert "All shape checks passed" in capsys.readouterr().out

    def test_artifacts_byte_identical_serial_vs_jobs(self, tmp_path, capsys):
        runs = {"serial": [], "j2": ["--jobs", "2"]}
        for name, extra in runs.items():
            out = tmp_path / name
            assert main(
                ["fleet", *SMALL_ARGS, *extra, "--out", str(out)]
            ) == 0
        capsys.readouterr()
        for artifact in ("fleeta.txt", "fleeta.csv", "fleetb.txt",
                         "fleetb.csv"):
            base = (tmp_path / "serial" / artifact).read_bytes()
            assert (tmp_path / "j2" / artifact).read_bytes() == base

    def test_invalid_scale_is_usage_error(self, tmp_path, capsys):
        assert main(["fleet", "--pms", "0", "--trials", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_sanitize_flag_reports_fleet_streams(self, capsys):
        assert main(["fleet", *SMALL_ARGS, "--sanitize"]) == 0
        out = capsys.readouterr().out
        assert "sanitizer:" in out
