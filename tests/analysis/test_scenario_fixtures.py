"""Annotated scenario fixture corpus: every SCN rule fires on its
seeded misconfiguration and stays silent on the clean control.

Each ``.yaml`` under ``scenario_fixtures/`` is one scenario document;
``# expect-scn: RULE`` comments state the exact finding set per file --
extra findings are failures too, and every finding must land on its
annotated line.  The corpus root holds a ``.vdaplint-skip`` marker so
repo-wide ``--scenarios`` sweeps do not trip over the deliberate
violations (explicitly-named files still analyze).
"""

import os
import re

import pytest

from repro.analysis import SKIP_MARKER, ScenarioAnalyzer
from repro.analysis.scenario import SCENARIO_RULE_CLASSES
from repro.scenarios import ScenarioError, compile_text

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "scenario_fixtures")

EXPECT_RE = re.compile(r"#\s*expect-scn:\s*([A-Z0-9]+(?:\s*,\s*[A-Z0-9]+)*)")

_ANALYZER = ScenarioAnalyzer()


def fixture_files() -> list[str]:
    return sorted(
        os.path.join(FIXTURE_DIR, name)
        for name in os.listdir(FIXTURE_DIR)
        if name.endswith((".yaml", ".yml"))
    )


def expected_findings(path: str) -> set[tuple[int, str]]:
    expected = set()
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = EXPECT_RE.search(text)
        if not match:
            continue
        for rule_id in match.group(1).split(","):
            expected.add((lineno, rule_id.strip()))
    return expected


def analyze(path: str) -> set[tuple[int, str]]:
    return {(f.line, f.rule) for f in _ANALYZER.analyze_file(path)}


@pytest.mark.parametrize(
    "path", fixture_files(), ids=[os.path.basename(p) for p in fixture_files()]
)
def test_fixture_matches_annotations(path):
    expected = expected_findings(path)
    actual = analyze(path)
    missing = expected - actual
    unexpected = actual - expected
    assert not missing, f"{path}: annotated findings did not fire: {missing}"
    assert not unexpected, f"{path}: unannotated findings fired: {unexpected}"


def test_clean_fixture_has_no_annotations():
    """``clean_control`` is the zero-findings control, by construction."""
    path = os.path.join(FIXTURE_DIR, "clean_control.yaml")
    assert expected_findings(path) == set()
    assert analyze(path) == set()


def test_corpus_exercises_every_rule():
    """Every shipped SCN rule must fire somewhere in the corpus."""
    shipped = {cls.id for cls in SCENARIO_RULE_CLASSES}
    fired = set()
    for path in fixture_files():
        fired.update(rule for _line, rule in analyze(path))
    assert shipped <= fired, f"rules with no firing fixture: {shipped - fired}"


def test_lint_reports_every_cell_the_compiler_refuses():
    """Lint and compile share one lowering path: each failing matrix cell
    is one finding, and ``compile_text`` raises the same issues."""
    path = os.path.join(FIXTURE_DIR, "bad_barrier.yaml")
    findings = _ANALYZER.analyze_file(path)
    with open(path, encoding="utf-8") as fh:
        with pytest.raises(ScenarioError) as err:
            compile_text(fh.read(), path)
    assert [(f.line, f.rule, f.message) for f in findings] == [
        (issue.line, issue.rule, issue.message) for issue in err.value.issues
    ]
    assert [f.message.split("`")[1] for f in findings] == [
        "v2v_latency_s=0.5", "v2v_latency_s=2.0",
    ]
    assert all("conservative sync violated" in f.message for f in findings)


def test_corpus_is_skip_marked():
    """The fixture corpus must opt out of directory-walk discovery."""
    assert os.path.exists(os.path.join(FIXTURE_DIR, SKIP_MARKER))


def test_pragma_suppresses_scenario_finding(tmp_path):
    """SCN findings honor the standard vdaplint pragmas (YAML comments)."""
    doc = (
        "name: suppressed\n"
        "fleet:\n"
        "  vehicles: 4\n"
        "  duration_s: -3.0  # vdaplint: disable=SCN001\n"
    )
    path = tmp_path / "suppressed.yaml"
    path.write_text(doc, encoding="utf-8")
    assert analyze(str(path)) == set()
