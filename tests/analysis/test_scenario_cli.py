"""Scenario CLI tier: flag guards, discovery, and findings.

Runs ``--scenarios`` over temp scenario files and the shipped corpus.
"""

import json
import os

import pytest

from repro.analysis import main
from repro.analysis.engine import discover_files
from repro.analysis.scenario import SCENARIO_EXTENSIONS

SHIPPED = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "scenarios"
)

BAD_DOC = (
    "name: bad\n"
    "fleet:\n"
    "  vehicles: 4\n"
    "  duration_s: -3.0\n"
    "  barrier_ms: 250\n"
)

CLEAN_DOC = (
    "name: ok\n"
    "fleet:\n"
    "  vehicles: 4\n"
    "  partitions: 2\n"
)


def run_cli(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


class TestGuards:
    def test_scenario_rule_selection_requires_scenarios(self, tmp_path):
        (tmp_path / "m.py").write_text("x = 1\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main([str(tmp_path), "--select", "SCN001"])
        assert exc.value.code == 2

    def test_list_rules_includes_the_scenario_tier(self, capsys):
        code, out = run_cli(["--list-rules"], capsys)
        assert code == 0
        for rule_id in ("SCN001", "SCN002", "SCN003", "SCN005"):
            assert rule_id in out
        assert "[scenario]" in out


class TestDiscovery:
    def test_walk_collects_yaml_and_yml(self, tmp_path):
        (tmp_path / "a.yaml").write_text(CLEAN_DOC, encoding="utf-8")
        (tmp_path / "b.yml").write_text(CLEAN_DOC, encoding="utf-8")
        (tmp_path / "c.txt").write_text("not a scenario", encoding="utf-8")
        found = discover_files([str(tmp_path)], SCENARIO_EXTENSIONS)
        assert [os.path.basename(p) for p in found] == ["a.yaml", "b.yml"]

    def test_skip_marker_prunes_directories(self, tmp_path):
        sub = tmp_path / "fixtures"
        sub.mkdir()
        (sub / ".vdaplint-skip").write_text("", encoding="utf-8")
        (sub / "bad.yaml").write_text(BAD_DOC, encoding="utf-8")
        (tmp_path / "good.yaml").write_text(CLEAN_DOC, encoding="utf-8")
        found = discover_files([str(tmp_path)], SCENARIO_EXTENSIONS)
        assert [os.path.basename(p) for p in found] == ["good.yaml"]

    def test_missing_path_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([str(tmp_path / "nope"), "--scenarios"])
        assert exc.value.code == 2


class TestFindings:
    def test_bad_scenario_fails_the_run_with_located_findings(
        self, tmp_path, capsys
    ):
        path = tmp_path / "bad.yaml"
        path.write_text(BAD_DOC, encoding="utf-8")
        code, out = run_cli(
            [str(tmp_path), "--scenarios"], capsys
        )
        assert code == 1
        assert "bad.yaml:4" in out and "SCN001" in out
        assert "bad.yaml:5" in out and "SCN002" in out

    def test_syntax_error_surfaces_as_e999(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("fleet:\n\tvehicles: 4\n", encoding="utf-8")
        code, out = run_cli(
            [str(tmp_path), "--scenarios"], capsys
        )
        assert code == 1
        assert "E999" in out

    def test_clean_scenario_passes_and_counts_as_scanned(
        self, tmp_path, capsys
    ):
        (tmp_path / "ok.yaml").write_text(CLEAN_DOC, encoding="utf-8")
        code, out = run_cli(
            [str(tmp_path), "--scenarios"], capsys
        )
        assert code == 0
        assert "1 file" in out

    def test_without_the_flag_scenarios_are_ignored(self, tmp_path, capsys):
        (tmp_path / "bad.yaml").write_text(BAD_DOC, encoding="utf-8")
        code, _ = run_cli([str(tmp_path)], capsys)
        assert code == 0

    def test_shipped_scenarios_are_strict_clean(self, capsys):
        code, _ = run_cli([SHIPPED, "--scenarios"], capsys)
        assert code == 0

    def test_json_report_carries_scenario_findings(self, tmp_path, capsys):
        (tmp_path / "bad.yaml").write_text(BAD_DOC, encoding="utf-8")
        code, out = run_cli(
            [str(tmp_path), "--scenarios", "--format", "json"],
            capsys,
        )
        assert code == 1
        report = json.loads(out)
        rules = {f["rule"] for f in report["findings"]}
        assert {"SCN001", "SCN002"} <= rules
