"""Baseline lifecycle: write -> mutate tree -> re-lint -> GC stale entries."""

import json

import pytest

from repro.analysis.cli import main

DIRTY_TWO = (
    "import time\n"
    "\n"
    "__all__ = [\"snap\"]\n"
    "\n"
    "\n"
    "def snap():\n"
    "    a = time.time()\n"
    "    b = time.monotonic()\n"
    "    return (a, b)\n"
)

DIRTY_ONE = (
    "import time\n"
    "\n"
    "__all__ = [\"snap\"]\n"
    "\n"
    "\n"
    "def snap():\n"
    "    a = time.time()\n"
    "    b = 0.0\n"
    "    return (a, b)\n"
)


@pytest.fixture
def project(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dirty.py").write_text(DIRTY_TWO)
    return tmp_path


def test_write_mutate_relint_roundtrip(project, capsys):
    # 1. Baseline the two pre-existing violations.
    assert main(["dirty.py", "--write-baseline"]) == 0
    assert "wrote 2 fingerprints" in capsys.readouterr().out

    # 2. Clean lint: both grandfathered, exit 0.
    assert main(["dirty.py"]) == 0
    assert "2 baselined" in capsys.readouterr().out

    # 3. Fix one violation: the other stays grandfathered, and the
    #    summary calls out the now-stale fingerprint.
    (project / "dirty.py").write_text(DIRTY_ONE)
    assert main(["dirty.py"]) == 0
    out = capsys.readouterr().out
    assert "1 baselined" in out
    assert "1 stale baseline fingerprint" in out

    # 4. A fresh violation is NOT covered by the baseline.
    (project / "dirty.py").write_text(DIRTY_ONE + "\n\nSEED = time.time()\n")
    assert main(["dirty.py"]) == 1

    # 5. Re-writing the baseline GCs fingerprints for fixed findings.
    (project / "dirty.py").write_text(DIRTY_ONE)
    assert main(["dirty.py", "--write-baseline"]) == 0
    assert "(1 stale dropped)" in capsys.readouterr().out
    stored = json.loads((project / ".vdaplint-baseline.json").read_text())
    assert len(stored["fingerprints"]) == 1


def test_strict_warns_on_nonempty_baseline(project, capsys):
    assert main(["dirty.py", "--write-baseline"]) == 0
    capsys.readouterr()
    assert main(["dirty.py", "--strict"]) == 1
    captured = capsys.readouterr()
    assert "warning" in captured.err
    assert "--strict ignores the non-empty baseline" in captured.err


def test_strict_stays_quiet_without_baseline(project, capsys):
    assert main(["dirty.py", "--strict"]) == 1
    assert capsys.readouterr().err == ""

    # Under --strict a malformed baseline counts as no baseline at all.
    for payload in ("[]", '{"fingerprints": 5}', '{"fingerprints": "abc"}'):
        (project / ".vdaplint-baseline.json").write_text(payload)
        assert main(["dirty.py", "--strict"]) == 1
        assert capsys.readouterr().err == ""
