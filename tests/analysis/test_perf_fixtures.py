"""Annotated mp fixture corpus: every MP rule fires on its seeded bug and
stays silent on the idiomatic fix in the same file.

Each fixture under ``perf_fixtures/`` carries ``# expect-mp: RULE``
annotations; the analyzer must produce *exactly* that finding set --
extra findings on the fixed variants are failures too.  The corpus
directory holds a ``.vdaplint-skip`` marker so repo-wide lint sweeps do
not trip over the deliberate violations.  The CLI runs the pack under
``--whole-program``.
"""

import os
import re

import pytest

from repro.analysis import SKIP_MARKER, MpAnalyzer, build_graph, main
from repro.analysis.mp import MP_RULE_CLASSES

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "perf_fixtures")

EXPECT_RE = re.compile(r"#\s*expect-mp:\s*([A-Z0-9]+(?:\s*,\s*[A-Z0-9]+)*)")


def fixture_paths() -> list[str]:
    return sorted(
        os.path.join(FIXTURE_DIR, name)
        for name in os.listdir(FIXTURE_DIR)
        if name.endswith(".py")
    )


def expected_findings(source: str) -> set[tuple[int, str]]:
    expected = set()
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = EXPECT_RE.search(text)
        if not match:
            continue
        for rule_id in match.group(1).split(","):
            expected.add((lineno, rule_id.strip()))
    return expected


def analyze(path: str) -> set[tuple[int, str]]:
    findings = MpAnalyzer().analyze_graph(build_graph([path]))
    return {(f.line, f.rule) for f in findings}


@pytest.mark.parametrize(
    "path", fixture_paths(), ids=[os.path.basename(p) for p in fixture_paths()]
)
def test_fixture_matches_annotations(path):
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    expected = expected_findings(source)
    actual = analyze(path)
    missing = expected - actual
    unexpected = actual - expected
    assert not missing, f"{path}: annotated findings did not fire: {missing}"
    assert not unexpected, f"{path}: unannotated findings fired: {unexpected}"


def test_corpus_exercises_every_rule():
    """Every shipped MP rule must fire somewhere in the corpus."""
    shipped = {cls.id for cls in MP_RULE_CLASSES}
    fired = set()
    for path in fixture_paths():
        fired.update(rule for _line, rule in analyze(path))
    assert shipped <= fired, f"rules with no firing fixture: {shipped - fired}"


def test_corpus_is_skip_marked():
    """The fixture directory must opt out of directory-walk discovery."""
    assert os.path.exists(os.path.join(FIXTURE_DIR, SKIP_MARKER))


def test_whole_program_cli_reports_mp_findings(capsys):
    """``--whole-program`` runs the MP pack at each annotated line."""
    path = os.path.join(FIXTURE_DIR, "mp003_protocol.py")
    code = main(["--whole-program", "--strict", path])
    out = capsys.readouterr().out
    assert code == 1
    with open(path, encoding="utf-8") as fh:
        expected = expected_findings(fh.read())
    reported = {
        (int(m.group(1)), m.group(2))
        for m in re.finditer(r":(\d+):\d+: (MP\d{3}) ", out)
    }
    assert reported == expected


def test_pragma_suppresses_mp_finding(tmp_path):
    """MP findings honor the standard vdaplint pragmas."""
    bug = (
        "import multiprocessing\n"
        "\n"
        "def run():\n"
        "    proc = multiprocessing.Process(\n"
        "        target=print,\n"
        "        args=(lambda: 1,),  # vdaplint: disable=MP001\n"
        "    )\n"
        "    proc.start()\n"
    )
    path = tmp_path / "spawn.py"
    path.write_text(bug, encoding="utf-8")
    assert analyze(str(path)) == set()
    path.write_text(bug.replace("  # vdaplint: disable=MP001", ""),
                    encoding="utf-8")
    assert analyze(str(path)) == {(6, "MP001")}
