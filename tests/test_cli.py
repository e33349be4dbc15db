"""Tests for the CLI."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.experiments.runner import ALL_IDS
from repro.perf.cells import MicrobenchCell
from repro.perf.manifest import RunManifest


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ALL_IDS

    def test_run_table(self, capsys):
        assert main(["run", "table2"]) == 0
        out = capsys.readouterr().out
        assert "Generated benchmarks" in out
        assert "All shape checks passed" in out

    def test_run_subfigure_fast(self, capsys):
        assert main(["run", "fig5a", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "fig5a" in out

    def test_run_group_fast_with_out(self, tmp_path, capsys):
        assert main(["run", "fig5", "--fast", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "fig5a.txt").exists()
        assert (tmp_path / "fig5b.txt").exists()
        csv_text = (tmp_path / "fig5a.csv").read_text()
        assert csv_text.startswith("series,x,y")
        assert "Dom0," in csv_text

    def test_unknown_id(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestCliValidate:
    def test_validate_fast(self, capsys):
        assert main(["validate", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "fit quality" in out
        assert "cross-validated RMSE" in out
        assert "dom0.cpu" in out

    def test_run_extras(self, capsys):
        assert main(["run", "purity"]) == 0
        assert "purity" in capsys.readouterr().out


class TestCacheStatsCli:
    """Regression: cached runs used to leave ``repro cache stats``
    reporting nothing -- counters died with the run's process."""

    def test_cache_stats_reports_lifetime_counters(self, tmp_path, capsys):
        cd = str(tmp_path / "cache")
        assert main(["run", "fig5a", "--fast", "--cache-dir", cd]) == 0
        assert main(["run", "fig5a", "--fast", "--cache-dir", cd]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cd]) == 0
        out = capsys.readouterr().out
        assert "hits/misses:" in out  # absent before the fix (0/0)
        counts = out.split("hits/misses:")[1].split()[0]
        hits, misses = (int(v) for v in counts.split("/"))
        # Run 1 misses every cell (and may re-hit shared ones); run 2
        # replays everything from disk, so hits strictly dominate.
        assert hits > 0 and misses > 0
        assert hits >= misses

    def test_clear_also_drops_stats(self, tmp_path, capsys):
        cd = str(tmp_path / "cache")
        main(["run", "fig5a", "--fast", "--cache-dir", cd])
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir", cd]) == 0
        assert main(["cache", "stats", "--cache-dir", cd]) == 0
        out = capsys.readouterr().out
        assert "hits/misses:" not in out


class TestCrashSafety:
    """--run-dir / --resume / repro runs, and the supervised exit codes."""

    def test_run_dir_records_manifest(self, tmp_path, capsys):
        rd = tmp_path / "rd"
        assert main(
            ["run", "fig5a", "--fast", "--run-dir", str(rd)]
        ) == 0
        captured = capsys.readouterr()
        assert "run manifest:" in captured.err
        assert (rd / "manifest.jsonl").is_file()
        manifest = RunManifest(rd)
        assert manifest.status().complete
        assert manifest.store.stats().entries == len(manifest.status().cells)

    def test_run_and_cache_dirs_share_one_store(self, tmp_path, capsys):
        # With both --run-dir and --cache-dir, the run directory's
        # checkpoints are the cache's entries: one file per cell.
        rd, cd = tmp_path / "rd", tmp_path / "cache"
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", "fig5a", "--fast", "--run-dir", str(rd),
                     "--cache-dir", str(cd), "--out", str(out1)]) == 0
        cells = RunManifest(rd).status().cells
        assert cells
        pickles = sorted(rd.rglob("*.pkl")) + sorted(cd.rglob("*.pkl"))
        assert len(pickles) == len(cells)
        capsys.readouterr()
        assert main(["run", "fig5a", "--fast", "--resume", str(rd),
                     "--cache-dir", str(cd), "--out", str(out2)]) == 0
        assert " restored, 0 executed)" in capsys.readouterr().err
        assert sorted(rd.rglob("*.pkl")) + sorted(cd.rglob("*.pkl")) == (
            sorted(pickles)
        )
        for name in ("fig5a.txt", "fig5a.csv"):
            assert (out2 / name).read_bytes() == (out1 / name).read_bytes()

    def test_runs_status_complete(self, tmp_path, capsys):
        rd = tmp_path / "rd"
        main(["run", "fig5a", "--fast", "--run-dir", str(rd)])
        capsys.readouterr()
        assert main(["runs", "status", str(rd)]) == 0
        out = capsys.readouterr().out
        assert "complete" in out
        assert "run fig5a --fast" in out

    def test_resume_restores_and_output_identical(self, tmp_path, capsys):
        rd = tmp_path / "rd"
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["run", "fig5a", "--fast", "--run-dir", str(rd),
              "--out", str(out1)])
        capsys.readouterr()
        assert main(["run", "fig5a", "--fast", "--resume", str(rd),
                     "--out", str(out2)]) == 0
        err = capsys.readouterr().err
        assert "0 executed" in err
        for name in ("fig5a.txt", "fig5a.csv"):
            assert (out2 / name).read_bytes() == (out1 / name).read_bytes()

    def test_runs_resume_nothing_to_do(self, tmp_path, capsys):
        rd = tmp_path / "rd"
        main(["run", "fig5a", "--fast", "--run-dir", str(rd)])
        capsys.readouterr()
        assert main(["runs", "resume", str(rd)]) == 0
        assert "nothing to resume" in capsys.readouterr().out

    def test_runs_resume_reissues_recorded_command(self, tmp_path, capsys):
        rd = tmp_path / "rd"
        out = tmp_path / "out"
        # A ledger with a recorded command but no completed cells: the
        # shape of a run killed before any checkpoint landed.
        RunManifest(rd).open_run(
            ["run", "fig5a", "--fast", "--run-dir", str(rd),
             "--out", str(out)],
            resumed=False,
        )
        assert main(["runs", "resume", str(rd)]) == 0
        captured = capsys.readouterr()
        assert "resuming: repro run fig5a" in captured.err
        assert "--resume" in captured.err
        assert (out / "fig5a.txt").is_file()
        status = RunManifest(rd).status()
        assert status.resumed_runs == 1
        assert status.complete

    def test_runs_resume_without_command_errors(self, tmp_path, capsys):
        assert main(["runs", "resume", str(tmp_path / "empty")]) == 2
        assert "no recorded command" in capsys.readouterr().err

    def test_runs_gc_reports_removals(self, tmp_path, capsys):
        rd = tmp_path / "rd"
        main(["run", "fig5a", "--fast", "--run-dir", str(rd)])
        capsys.readouterr()
        orphan = RunManifest(rd).store.path(
            MicrobenchCell(kind="cpu", n_vms=1, level=1.0, index=0,
                           duration=1.0, seed=0)
        )
        orphan.write_bytes(b"junk")
        assert main(["runs", "gc", str(rd)]) == 0
        assert "1 orphaned" in capsys.readouterr().out
        assert not orphan.exists()

    def test_permanent_failure_exits_3_with_hint(
        self, tmp_path, capsys, monkeypatch
    ):
        def boom(cell):
            raise RuntimeError("injected failure")

        monkeypatch.setattr("repro.perf.executor._execute_cell", boom)
        rd = tmp_path / "rd"
        code = main(
            ["run", "fig5a", "--fast", "--run-dir", str(rd),
             "--cell-attempts", "2"]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "failed permanently" in err
        assert "runs resume" in err  # the retry hint names the fix

    def test_recovered_retry_exits_0_with_warning(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.perf.executor as executor

        real = executor._execute_cell
        calls = {"n": 0}

        def flaky(cell):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient failure")
            return real(cell)

        monkeypatch.setattr("repro.perf.executor._execute_cell", flaky)
        code = main(["run", "fig5a", "--fast", "--cell-attempts", "3"])
        assert code == 0
        err = capsys.readouterr().err
        assert "supervisor:" in err
        assert "recovered" in err

    def test_cell_attempts_validated(self, capsys):
        assert main(["run", "fig5a", "--fast", "--cell-attempts", "0"]) == 2
        assert "--cell-attempts" in capsys.readouterr().err

    def test_negative_chunk_is_usage_error(self, capsys):
        assert main(["run", "fig5a", "--fast", "--chunk", "-3"]) == 2
        captured = capsys.readouterr()
        assert "--chunk" in captured.err
        assert captured.out == ""


class TestChaosActions:
    """``repro chaos fuzz|replay|shrink`` front-ends."""

    def test_fuzz_campaign_exits_0_and_writes_scorecard(
        self, tmp_path, capsys
    ):
        out_dir = tmp_path / "camp"
        code = main(
            ["chaos", "fuzz", "--seed", "5", "--runs", "1",
             "--out-dir", str(out_dir)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "all invariants held" in out
        assert "zero-fault-identity" in out
        assert (out_dir / "resilience.json").is_file()

    def test_fuzz_validates_runs(self, capsys):
        assert main(["chaos", "fuzz", "--runs", "0"]) == 2
        assert "runs" in capsys.readouterr().err

    def test_replay_requires_a_plan(self, capsys):
        assert main(["chaos", "replay"]) == 2
        assert "plan" in capsys.readouterr().err

    def test_replay_rejects_a_bad_plan_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}", encoding="utf-8")
        assert main(["chaos", "replay", str(bad)]) == 2
        assert "schema" in capsys.readouterr().err

    def test_replay_fuzz_plan_rechecks_oracles(self, tmp_path, capsys):
        from repro.faults.fuzz import FuzzConfig, sample_plan
        from repro.faults.plan import dump_plan

        plan_path = tmp_path / "plan.json"
        dump_plan(sample_plan(FuzzConfig(seed=5), 0), plan_path)
        code = main(
            ["chaos", "replay", str(plan_path),
             "--out-dir", str(tmp_path / "work")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[pass] vm-conservation" in out

    def test_shrink_refuses_a_passing_plan(self, tmp_path, capsys):
        from repro.faults.fuzz import FuzzConfig, sample_plan
        from repro.faults.plan import dump_plan

        plan_path = tmp_path / "plan.json"
        dump_plan(sample_plan(FuzzConfig(seed=5), 0), plan_path)
        code = main(
            ["chaos", "shrink", str(plan_path),
             "--out-dir", str(tmp_path / "work")]
        )
        assert code == 2
        assert "nothing to shrink" in capsys.readouterr().err

    def test_sweep_seed_and_plan_out_capture(self, tmp_path, capsys):
        from repro.faults.plan import load_plan

        plan_path = tmp_path / "sweep.json"
        code = main(
            ["chaos", "--fast", "--seed", "77",
             "--plan-out", str(plan_path),
             "--out", str(tmp_path / "arts")]
        )
        assert code == 0
        plan = load_plan(plan_path)
        assert plan.driver == "chaosb"
        assert plan.placement.seed == 77
