"""Engine mechanics, config loading, the CLI, and the self-lint gate."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import (
    LintEngine,
    Violation,
    all_rules,
    lint_paths,
    load_config,
)
from repro.lint.config import LintConfig
from repro.lint.rules import PARSE_ERROR_CODE

REPO_ROOT = Path(__file__).resolve().parents[2]

#: A fixture module with one known violation per rule (line numbers
#: don't matter; codes do).
SEEDED_BAD = """\
import random
import time
import numpy as np
from datetime import datetime


def stamp():
    return time.time(), datetime.now()


def draw(xs=[]):
    rng = np.random.default_rng(0)
    for x in set(xs):
        print(x)
    try:
        return rng.random() == 0.5
    except Exception:
        pass
    return sorted(xs, key=lambda v: hash(v))
"""

#: Every code the seeded fixture must trip.
SEEDED_CODES = {
    "REP001", "REP002", "REP003", "REP004", "REP005",
    "REP006", "REP007", "REP008", "REP010",
}


class TestEngine:
    def test_seeded_fixture_trips_every_rule(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(SEEDED_BAD)
        codes = {v.code for v in lint_paths([bad])}
        assert SEEDED_CODES <= codes

    def test_syntax_error_reports_rep000(self):
        engine = LintEngine()
        out = engine.lint_source("def broken(:\n", path="x.py")
        assert [v.code for v in out] == [PARSE_ERROR_CODE]
        assert "syntax error" in out[0].message

    def test_unreadable_file_reports_rep000(self, tmp_path):
        engine = LintEngine()
        out = engine.lint_file(tmp_path / "missing.py")
        assert [v.code for v in out] == [PARSE_ERROR_CODE]

    def test_walk_is_sorted_and_honors_exclude(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "a.py").write_text("x = 1\n")
        skip = tmp_path / "__pycache__"
        skip.mkdir()
        (skip / "c.py").write_text("import random\n")
        files = LintEngine().walk([tmp_path])
        assert [f.name for f in files] == ["a.py", "b.py"]

    def test_violations_sorted_by_location(self, tmp_path):
        f = tmp_path / "repro" / "sim" / "two.py"
        f.parent.mkdir(parents=True)
        f.write_text("import random\nx = y == 1.5\n")
        out = lint_paths([f])
        assert [(v.line, v.code) for v in out] == [
            (1, "REP001"), (2, "REP004"),
        ]

    def test_render_is_clickable(self):
        v = Violation("REP004", "msg", "a/b.py", 3, 0)
        assert v.render() == "a/b.py:3:1: REP004 msg"


class TestConfig:
    def test_defaults_without_file(self, tmp_path):
        cfg = load_config(tmp_path / "pyproject.toml")
        assert cfg == LintConfig()

    def test_overrides_applied(self, tmp_path):
        pp = tmp_path / "pyproject.toml"
        pp.write_text(
            "[tool.repro.lint]\n"
            'ignore = ["REP004"]\n'
            'print-allowed = ["pkg/cli.py"]\n'
        )
        cfg = load_config(pp)
        assert cfg.ignore == ("REP004",)
        assert cfg.print_allowed == ("pkg/cli.py",)
        # untouched keys keep their defaults
        assert cfg.rng_allowed == LintConfig().rng_allowed

    def test_unknown_key_raises(self, tmp_path):
        pp = tmp_path / "pyproject.toml"
        pp.write_text("[tool.repro.lint]\nbogus = true\n")
        with pytest.raises(ValueError, match="bogus"):
            load_config(pp)

    def test_repo_pyproject_table_loads(self):
        cfg = load_config(REPO_ROOT / "pyproject.toml")
        assert "repro/sim/rng.py" in cfg.rng_allowed
        assert any("repro/sim" == p for p in cfg.wallclock_paths)


class TestCli:
    def _bad_tree(self, tmp_path) -> Path:
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(SEEDED_BAD)
        return tmp_path

    def test_seeded_fixture_exits_nonzero(self, tmp_path, capsys):
        tree = self._bad_tree(tmp_path)
        assert main(["lint", str(tree)]) == 1
        out = capsys.readouterr().out
        assert "REP007" in out
        assert "violation(s)" in out

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        f = tmp_path / "ok.py"
        f.write_text("x = 1\n")
        assert main(["lint", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        tree = self._bad_tree(tmp_path)
        assert main(["lint", str(tree), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == len(payload["violations"])
        assert {"code", "message", "path", "line", "col"} <= set(
            payload["violations"][0]
        )

    def test_select_filters(self, tmp_path, capsys):
        tree = self._bad_tree(tmp_path)
        assert main(["lint", str(tree), "--select", "REP005"]) == 1
        out = capsys.readouterr().out
        assert "REP005" in out
        assert "REP007" not in out

    def test_unknown_code_is_usage_error(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path), "--select", "REP999"]) == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, capsys):
        assert main(["lint", "no/such/dir"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "REP001" in out and "REP010" in out

    def test_statistics_footer(self, tmp_path, capsys):
        tree = self._bad_tree(tmp_path)
        assert main(["lint", str(tree), "--statistics"]) == 1
        assert "float-equality" in capsys.readouterr().out


class TestSelfLint:
    """The tree stays clean by construction."""

    def test_src_is_clean(self):
        cfg = load_config(REPO_ROOT / "pyproject.toml")
        violations = lint_paths([REPO_ROOT / "src"], config=cfg)
        assert violations == [], "\n".join(v.render() for v in violations)

    def test_cli_src_exits_zero(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint", "src"]) == 0
        assert "clean" in capsys.readouterr().out


class TestCliAdditions:
    def test_epilogue_range_tracks_registry(self, capsys):
        from repro.lint.cli import _catalogue_range

        rng = _catalogue_range()
        assert rng.startswith("REP001")
        assert rng.endswith(max(r.code for r in all_rules()))

    def test_list_rules_includes_project_scope(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "REP106" in out and "project" in out


class TestDocsSync:
    """The README rule table stays in lock-step with the registry."""

    ROW = re.compile(
        r"^\|\s*(REP\d{3})\s*\|\s*([a-z0-9-]+)\s*\|", re.MULTILINE
    )

    def test_readme_table_matches_registry(self):
        text = (REPO_ROOT / "README.md").read_text()
        documented = {m.group(1): m.group(2) for m in self.ROW.finditer(text)}
        live = {r.code: r.name for r in all_rules()}
        assert documented == live, (
            "README 'Determinism enforcement' table out of sync with "
            "repro.lint REGISTRY"
        )

    def test_pyproject_comment_names_live_range(self):
        text = (REPO_ROOT / "pyproject.toml").read_text()
        assert "REP001..REP010" not in text
        codes = sorted(r.code for r in all_rules())
        file_codes = sorted(
            r.code for r in all_rules() if r.scope == "file"
        )
        project_codes = sorted(
            r.code for r in all_rules() if r.scope == "project"
        )
        assert f"{file_codes[0]}..{file_codes[-1]}" in text
        assert f"{project_codes[0]}..{project_codes[-1]}" in text
        assert codes  # registry is non-empty by construction

    def test_streams_manifest_covers_audited_call_sites(self):
        """Every statically-extractable stream in src/ is manifest-covered
        (the self-lint asserts this end to end; here we assert the
        manifest itself is non-trivial so REP102 runs in coverage mode)."""
        from repro.lint import load_config

        cfg = load_config(REPO_ROOT / "pyproject.toml")
        manifest = dict(cfg.streams)
        assert len(manifest) >= 10
        assert manifest["trial-clients"] == ("repro/placement/scenario.py",)
        assert "faults.worker.*" in manifest
