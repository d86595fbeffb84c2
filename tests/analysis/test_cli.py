"""CLI behaviour: exit codes, formats, baseline workflow, rule selection."""

import json
import os

import pytest

from repro.analysis import main

CLEAN = '"""A clean module."""\n\n__all__ = ["f"]\n\n\ndef f():\n    """Do nothing."""\n    return 0\n'
DIRTY = (
    '"""A module with two violations."""\n\n'
    "import time\n\n"
    '__all__ = ["f"]\n\n\n'
    "def f():\n"
    '    """Read the wall clock."""\n'
    "    return time.time()\n"
)


@pytest.fixture
def tree(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "clean.py").write_text(CLEAN)
    (tmp_path / "dirty.py").write_text(DIRTY)
    return tmp_path


def test_exit_zero_on_clean_file(tree, capsys):
    assert main(["clean.py"]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_exit_one_with_findings(tree, capsys):
    assert main(["dirty.py"]) == 1
    out = capsys.readouterr().out
    assert "dirty.py:10" in out and "DET001" in out


def test_json_format_is_parseable(tree, capsys):
    assert main(["dirty.py", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["files_scanned"] == 1
    assert [f["rule"] for f in payload["findings"]] == ["DET001"]
    assert payload["findings"][0]["line"] == 10


def test_unknown_rule_id_is_usage_error(tree):
    with pytest.raises(SystemExit) as exc:
        main(["clean.py", "--select", "NOPE999"])
    assert exc.value.code == 2


def test_missing_path_is_usage_error(tree):
    with pytest.raises(SystemExit) as exc:
        main(["does/not/exist"])
    assert exc.value.code == 2


def test_select_and_ignore_filter_rules(tree, capsys):
    assert main(["dirty.py", "--select", "RES001"]) == 0
    capsys.readouterr()
    assert main(["dirty.py", "--ignore", "DET001,SIM001"]) == 0


def test_baseline_workflow_grandfathers_then_strict_overrides(tree, capsys):
    # A malformed baseline is a usage error, and --write-baseline
    # overwrites it.
    for payload in ("[]", '{"fingerprints": 5}', '{"fingerprints": "abc"}'):
        (tree / ".vdaplint-baseline.json").write_text(payload)
        with pytest.raises(SystemExit) as exc:
            main(["dirty.py"])
        assert exc.value.code == 2
    capsys.readouterr()

    assert main(["dirty.py", "--write-baseline"]) == 0
    assert os.path.exists(".vdaplint-baseline.json")
    capsys.readouterr()

    # Grandfathered finding no longer fails the run...
    assert main(["dirty.py"]) == 0
    assert "1 baselined" in capsys.readouterr().out

    # ...but --strict ignores the baseline entirely.
    assert main(["dirty.py", "--strict"]) == 1


def test_new_violation_not_masked_by_baseline(tree, capsys):
    assert main(["dirty.py", "--write-baseline"]) == 0
    (tree / "dirty.py").write_text(DIRTY + "\n\nextra = time.monotonic()\n")
    capsys.readouterr()
    assert main(["dirty.py"]) == 1
    out = capsys.readouterr().out
    assert "monotonic" in out and "1 baselined" in out


def test_list_rules_names_the_whole_pack(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("DET001", "DET002", "DET003", "DET004",
                    "SIM001", "FLT001", "RES001", "API001"):
        assert rule_id in out


def test_syntax_error_exits_one(tree, capsys):
    (tree / "broken.py").write_text("def broken(:\n")
    assert main(["broken.py"]) == 1
    assert "E999" in capsys.readouterr().out
    # Semantic rules alone still report the parse failure.
    assert main(["broken.py", "--select", "UNIT001,UNIT002,RES101"]) == 1
    assert "E999" in capsys.readouterr().out


def test_whole_program_flags_are_usage_errors(tree):
    for flag in ("--whole-program", "--dump-callgraph", "--dump-taint"):
        with pytest.raises(SystemExit) as exc:
            main(["clean.py", flag])
        assert exc.value.code == 2


def test_flow_rule_selection_requires_whole_program(tree):
    # The whole-program and MP rules are gone; selecting one is a usage error.
    for rule_id in ("DET101", "SIM101", "RACE001", "MP001", "MP002", "MP003"):
        with pytest.raises(SystemExit) as exc:
            main(["clean.py", "--select", rule_id])
        assert exc.value.code == 2


def test_list_rules_tags_three_packs(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "[semantic]" in out and "[scenario]" in out
    assert "[whole-program]" not in out
    for rule_id in ("DET101", "SIM101", "RACE001", "MP001", "MP002", "MP003"):
        assert rule_id not in out
