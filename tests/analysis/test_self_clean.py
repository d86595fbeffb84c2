"""The meta-test: the platform's own tree passes its own linter.

This is the acceptance gate the CI job re-checks: ``vdaplint src/repro``
must report **zero** findings -- i.e. the determinism contract is clean
on every commit.
"""

import os
import tokenize

import repro
from repro.analysis import default_rules, lint_paths, scenario_rules
from repro.analysis.engine import PRAGMA_RE, discover_files


def repro_source_root() -> str:
    return os.path.dirname(os.path.abspath(repro.__file__))


def test_vdaplint_reports_zero_violations_on_src_repro():
    findings = lint_paths([repro_source_root()])
    rendered = "\n".join(f"{f.location()}: {f.rule} {f.message}" for f in findings)
    assert not findings, f"vdaplint found violations in src/repro:\n{rendered}"


def test_every_pragma_names_a_shipped_rule():
    """A suppression for a rule that no longer ships is dead weight and
    hides nothing; every pragma must name a live rule id or ``all``.

    Only real comments count: pragma text inside a string literal (a
    test feeding source to the engine) is data, not a suppression."""
    shipped = {"all"}
    for pack in (default_rules(), scenario_rules()):
        shipped.update(rule.id for rule in pack)
    src_root = repro_source_root()
    repo_root = os.path.dirname(os.path.dirname(src_root))
    trees = [src_root] + [
        os.path.join(repo_root, tree)
        for tree in ("benchmarks", "examples", "tests")
    ]
    stale = []
    for path in discover_files(trees):
        with tokenize.open(path) as fh:
            comments = [
                tok for tok in tokenize.generate_tokens(fh.readline)
                if tok.type == tokenize.COMMENT
            ]
        for tok in comments:
            match = PRAGMA_RE.search(tok.string)
            if match is None:
                continue
            for rule_id in match.group(2).split(","):
                if rule_id.strip() not in shipped:
                    stale.append(f"{path}:{tok.start[0]}: {rule_id.strip()}")
    assert not stale, "pragmas naming unknown rules:\n" + "\n".join(stale)
