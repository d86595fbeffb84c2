"""The meta-test: the platform's own tree passes its own linter.

This is the acceptance gate the CI job re-checks: ``vdaplint src/repro``
must report **zero** non-baselined findings -- i.e. the determinism
contract is clean on every commit, with no grandfathered debt for code
written after the linter shipped.
"""

import os

import repro
from repro.analysis import (
    MpAnalyzer,
    analyze_files,
    build_graph,
    default_rules,
    flow_rules,
    lint_paths,
    mp_rules,
    scenario_rules,
    semantic_rules,
)
from repro.analysis.engine import PRAGMA_RE, discover_files


def repro_source_root() -> str:
    return os.path.dirname(os.path.abspath(repro.__file__))


def test_vdaplint_reports_zero_violations_on_src_repro():
    findings = lint_paths([repro_source_root()])
    rendered = "\n".join(f"{f.location()}: {f.rule} {f.message}" for f in findings)
    assert not findings, f"vdaplint found violations in src/repro:\n{rendered}"


def test_semantic_tier_reports_zero_violations_on_src_repro():
    """UNIT/RES/PROTO must be clean too: every public API carries coherent
    unit suffixes and every sim grant is released on all paths."""
    files = discover_files([repro_source_root()])
    findings = analyze_files(files, [], semantic_rules())
    rendered = "\n".join(
        f"{f.location()}: {f.rule} {f.message}" for f in findings
    )
    assert not findings, (
        f"semantic analysis found violations in src/repro:\n{rendered}"
    )


def test_mp_tier_reports_zero_violations_on_src_repro():
    """MP001-003 must be clean too: every spawn payload pickles, worker
    code writes no fork-crossing globals, and the pipe protocol is
    exhaustive."""
    findings = MpAnalyzer().analyze_graph(build_graph([repro_source_root()]))
    rendered = "\n".join(
        f"{f.location()}: {f.rule} {f.message}" for f in findings
    )
    assert not findings, (
        f"mp analysis found violations in src/repro:\n{rendered}"
    )


def test_every_pragma_names_a_shipped_rule():
    """A suppression for a rule that no longer ships is dead weight and
    hides nothing; every pragma must name a live rule id or ``all``."""
    shipped = {"all"}
    for pack in (default_rules(), flow_rules(), mp_rules(), semantic_rules(),
                 scenario_rules()):
        shipped.update(rule.id for rule in pack)
    src_root = repro_source_root()
    repo_root = os.path.dirname(os.path.dirname(src_root))
    trees = [src_root] + [
        os.path.join(repo_root, tree) for tree in ("benchmarks", "examples")
    ]
    stale = []
    for path in discover_files(trees):
        with open(path, encoding="utf-8") as fh:
            for lineno, text in enumerate(fh, start=1):
                match = PRAGMA_RE.search(text)
                if match is None:
                    continue
                for rule_id in match.group(2).split(","):
                    if rule_id.strip() not in shipped:
                        stale.append(f"{path}:{lineno}: {rule_id.strip()}")
    assert not stale, "pragmas naming unknown rules:\n" + "\n".join(stale)


def test_src_repro_needs_no_baseline_entries():
    """The shipped tree is clean outright -- strict mode equals default mode."""
    repo_root = os.path.dirname(os.path.dirname(repro_source_root()))
    baseline_path = os.path.join(repo_root, ".vdaplint-baseline.json")
    assert not os.path.exists(baseline_path), (
        "src/repro should stay clean without grandfathered baseline entries"
    )
