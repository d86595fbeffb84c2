"""CLI behaviour: exit codes, formats, rule selection."""

import json

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


#: Rules that no longer ship: the whole-program tier, the MP pack, the
#: resource-protocol checker (the sim kernel enforces grant/yield/release)
#: and the unit checker (targeted tests catch the unit slips it guarded).
RETIRED_RULE_IDS = (
    "DET101", "SIM101", "RACE001", "MP001", "MP002", "MP003",
    "RES101", "RES102", "PROTO001", "UNIT001", "UNIT002", "UNIT003",
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
    # A selection that has no rule for the file still reports the parse
    # failure.
    assert main(["broken.py", "--select", "API001"]) == 1
    assert "E999" in capsys.readouterr().out


def test_whole_program_flags_are_usage_errors(tree):
    for flag in ("--whole-program", "--dump-callgraph", "--dump-taint"):
        with pytest.raises(SystemExit) as exc:
            main(["clean.py", flag])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "flags", [["--baseline", "x"], ["--write-baseline"], ["--strict"]],
    ids=["baseline", "write-baseline", "strict"],
)
def test_grandfathering_flags_are_usage_errors(tree, flags):
    # Every finding counts; there is no baseline file to read or write.
    with pytest.raises(SystemExit) as exc:
        main(["dirty.py", *flags])
    assert exc.value.code == 2


def test_flow_rule_selection_requires_whole_program(tree):
    # The whole-program, MP, resource-protocol and unit rules are gone;
    # selecting one (UNIT001 included) is a usage error.
    for rule_id in RETIRED_RULE_IDS:
        with pytest.raises(SystemExit) as exc:
            main(["clean.py", "--select", rule_id])
        assert exc.value.code == 2


def test_list_rules_tags_two_packs(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "[scenario]" in out
    assert "[semantic]" not in out and "[whole-program]" not in out
    for rule_id in RETIRED_RULE_IDS:
        assert rule_id not in out
