"""The semantic pass driver: one serial pass over every file.

The semantic pass runs :mod:`.units` over a whole file set:

1. read and parse every file once, summarizing each module's unit
   interface,
2. build the project-wide :class:`~.units.SignatureIndex` from those
   summaries (cross-module UNIT002 resolves calls through it),
3. run the file-level lint pack plus the unit checker on each parsed
   file.

Files that fail to read or parse are reported as E999 and take no part
in the index.
"""

from __future__ import annotations

import ast
from typing import Iterable, Sequence

from .engine import (
    PARSE_ERROR_RULE,
    Finding,
    LintEngine,
    Pragmas,
    Rule,
)
from .units import (
    UNIT_RULE_CLASSES,
    SignatureIndex,
    UnitChecker,
    summarize_module,
)

__all__ = [
    "SEMANTIC_RULE_CLASSES",
    "analyze_files",
    "semantic_rules",
    "semantic_rules_by_id",
]

SEMANTIC_RULE_CLASSES = UNIT_RULE_CLASSES


def semantic_rules() -> list[Rule]:
    """Fresh instances of the semantic rule pack, in catalogue order."""
    return [cls() for cls in SEMANTIC_RULE_CLASSES]


def semantic_rules_by_id() -> dict[str, Rule]:
    """The semantic rule pack keyed by rule id."""
    return {rule.id: rule for rule in semantic_rules()}


def analyze_files(files: Sequence[str], file_rules: Sequence[Rule],
                  semantic_rules: Iterable[Rule]) -> list[Finding]:
    """Run ``file_rules`` and ``semantic_rules`` over ``files``.

    Returns the pragma-filtered findings of both packs in sorted order.
    """
    engine = LintEngine(file_rules)
    unit_rules = {r.id: r for r in semantic_rules}

    findings: list[Finding] = []
    parsed = []
    for path in sorted(set(files)):
        try:
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
        except (OSError, UnicodeDecodeError) as err:
            findings.append(Finding(
                path=path, line=1, col=0, rule=PARSE_ERROR_RULE,
                message=f"cannot read file: {err}",
            ))
            continue
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            # The lint engine owns the E999 rendering.
            findings.extend(engine.lint_source(source, path=path))
            continue
        summary = summarize_module(path, source, tree=tree)
        parsed.append((path, source, tree, summary))

    index = SignatureIndex(summary for *_, summary in parsed)
    for path, source, tree, summary in parsed:
        findings.extend(engine.lint_parsed(path, source, tree))
        if unit_rules:
            checker = UnitChecker(index, rules=unit_rules)
            pragmas = Pragmas(source)
            findings.extend(
                f for f in checker.check_module(summary, source, tree)
                if not pragmas.suppressed(f.line, f.rule)
            )
    return sorted(findings)
