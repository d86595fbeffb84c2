"""Unit corpus: each semantic rule catches a seeded cross-module bug.

Each directory under ``unit_fixtures/`` is a miniature multi-module
project with one class of bug the UNIT tier must catch.  Lines carry
``# expect-unit: RULE`` annotations; the semantic tier must report
exactly those (file, line, rule) triples --
and the PR 2 single-file rule pack must report *nothing* at those
coordinates, which is the point.
"""

import os
import re

import pytest

from repro.analysis import (
    LintEngine,
    analyze_files,
    default_rules,
    semantic_rules,
)

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "unit_fixtures")
CASES = sorted(
    name
    for name in os.listdir(FIXTURE_DIR)
    if os.path.isdir(os.path.join(FIXTURE_DIR, name))
)
EXPECT_RE = re.compile(
    r"#\s*expect-unit:\s*([A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*)"
)


def _case_files(case):
    root = os.path.join(FIXTURE_DIR, case)
    return sorted(
        os.path.join(root, name)
        for name in os.listdir(root)
        if name.endswith(".py")
    )


def _expected(case):
    triples = set()
    for path in _case_files(case):
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                match = EXPECT_RE.search(line)
                if match:
                    for rule in re.split(r"\s*,\s*", match.group(1)):
                        triples.add((os.path.basename(path), lineno, rule))
    return triples


def _semantic_findings(files):
    return analyze_files(files, [], semantic_rules())


def test_corpus_covers_every_semantic_rule():
    assert CASES == sorted(CASES)
    fired = {rule for case in CASES for (_, _, rule) in _expected(case)}
    assert fired == {"UNIT001", "UNIT002", "UNIT003"}


@pytest.mark.parametrize("case", CASES)
def test_findings_match_annotations_exactly(case):
    actual = {
        (os.path.basename(f.path), f.line, f.rule)
        for f in _semantic_findings(_case_files(case))
    }
    assert actual == _expected(case)


@pytest.mark.parametrize("case", CASES)
def test_single_file_rules_miss_every_annotated_site(case):
    engine = LintEngine(default_rules())
    for path in _case_files(case):
        flagged_lines = {f.line for f in engine.lint_file(path)}
        annotated = {
            line
            for (fname, line, _) in _expected(case)
            if fname == os.path.basename(path)
        }
        assert not (flagged_lines & annotated), path


def test_unit002_names_the_callee(tmp_path):
    findings = [
        f for f in _semantic_findings(_case_files("unit002_wrong_arg"))
        if f.rule == "UNIT002"
    ]
    assert findings and all("transmit" in f.message for f in findings)

    # Untyped parameters: the callee's unit comes from its summary alone.
    (tmp_path / "lib.py").write_text(
        "def eta(payload_bytes):\n"
        "    return payload_bytes / 1e6\n"
    )
    (tmp_path / "app.py").write_text(
        "from lib import eta\n"
        "\n"
        "def f(window_s):\n"
        "    return eta(window_s)\n"
    )
    findings = _semantic_findings(
        [str(tmp_path / "app.py"), str(tmp_path / "lib.py")]
    )
    assert [(os.path.basename(f.path), f.line, f.rule) for f in findings] == [
        ("app.py", 4, "UNIT002")
    ]
    assert "eta" in findings[0].message


def test_pragma_suppresses_semantic_findings(tmp_path):
    (tmp_path / "mix.py").write_text(
        "def budget(latency_s, payload_bytes):\n"
        "    return latency_s + payload_bytes  # vdaplint: disable=UNIT001\n"
    )
    assert _semantic_findings([str(tmp_path / "mix.py")]) == []
