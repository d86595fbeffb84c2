"""Planner CLI: flag guards, report shape, plan emission.

Runs ``--plan`` over the annotated fixture corpus (zero-latency seed and
the clean control) and over the real tree.
"""

import json
import os

import pytest

from repro.analysis import main

FIXTURES = os.path.join(os.path.dirname(__file__), "plan_fixtures")
CLEAN_DIR = os.path.join(FIXTURES, "fleet_clean")
ZERO_DIR = os.path.join(FIXTURES, "fleet002_zero_latency")


def run_cli(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


class TestGuards:
    @pytest.mark.parametrize(
        "flag", ["--plan-fleet", "--plan-out", "--dump-commgraph", "--dump-plan"]
    )
    def test_plan_flags_require_plan(self, flag, tmp_path):
        (tmp_path / "m.py").write_text("x = 1\n", encoding="utf-8")
        argv = [str(tmp_path), flag]
        if flag in ("--plan-fleet", "--plan-out"):
            argv.append("vehicles=4" if flag == "--plan-fleet" else "plan.json")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_fleet_rule_selection_requires_plan(self, tmp_path):
        (tmp_path / "m.py").write_text("x = 1\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main([str(tmp_path), "--select", "FLEET001"])
        assert exc.value.code == 2

    def test_bad_fleet_spec_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([CLEAN_DIR, "--plan", "--plan-fleet", "nope=1"])
        assert exc.value.code == 2


class TestListRules:
    def test_fleet_pack_listed(self, capsys):
        code, out = run_cli(["--list-rules"], capsys)
        assert code == 0
        assert "[fleet]" in out
        for rule_id in ("FLEET001", "FLEET002", "FLEET003"):
            assert rule_id in out


class TestPlanRuns:
    def test_clean_corpus_passes_strict_and_emits_plan(self, capsys, tmp_path):
        out_path = tmp_path / "plan.json"
        code, out = run_cli(
            [
                CLEAN_DIR,
                "--plan",
                "--strict",
                "--format",
                "json",
                "--plan-fleet",
                "vehicles=8,partitions=4,workload=skewed",
                "--plan-out",
                str(out_path),
                "--dump-plan",
                "--dump-commgraph",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["findings"] == []
        plan = payload["plan"]
        assert plan["vehicles"] == 8 and plan["partitions"] == 4
        assert plan["method"] == "greedy-lpt"
        comm = payload["commgraph"]
        assert comm["lookahead_s"] == 1.0
        # The emitted file is the same document as the embedded dump.
        assert json.loads(out_path.read_text(encoding="utf-8")) == plan

    def test_zero_latency_seed_fails_strict(self, capsys):
        code, out = run_cli(
            [ZERO_DIR, "--plan", "--strict", "--format", "json"], capsys
        )
        assert code == 1
        payload = json.loads(out)
        assert {f["rule"] for f in payload["findings"]} == {"FLEET002"}

    def test_select_narrows_fleet_findings(self, capsys):
        code, out = run_cli(
            [ZERO_DIR, "--plan", "--strict", "--select", "FLEET003",
             "--format", "json"], capsys
        )
        assert code == 0
        assert json.loads(out)["findings"] == []
