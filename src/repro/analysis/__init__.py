"""Static analysis layer: the ``vdaplint`` determinism & safety linter.

Everything the reproduction claims -- Fig 2/3 and Table I regeneration,
seeded fault storms, "same seed => byte-identical trace" -- rests on the
sim kernel's determinism contract.  This package makes that contract a
property checked on every commit instead of a convention in DESIGN.md:

* a from-scratch, stdlib-``ast`` lint engine (:mod:`.engine`) with a
  single-file rule pack encoding the platform invariants (:mod:`.rules`)
  and inline suppression pragmas;
* a **scenario** tier (:mod:`.scenario`): static validation of
  declarative fleet scenario files (:mod:`repro.scenarios`) -- schema,
  unit suffixes and cross-references (SCN001-003), the compiler's
  per-cell lowering failures (SCN001), and matrix cost budgets priced
  by the fleet planner's measured probe (SCN005, ``--scenarios``);
* a CLI with stable exit codes (:mod:`.cli`) in which every finding
  counts::

    python -m repro.analysis src/repro
    python -m repro.analysis --scenarios scenarios
    vdaplint --list-rules
"""

from .engine import (
    FileContext,
    Finding,
    LintEngine,
    Pragmas,
    Rule,
    SKIP_MARKER,
    discover_files,
    lint_paths,
    lint_source,
)
from .reporter import render_json, render_text
from .rules import RULE_CLASSES, default_rules, rules_by_id
from .scenario import (
    SCENARIO_RULE_CLASSES,
    ScenarioAnalyzer,
    scenario_rules,
    scenario_rules_by_id,
)
from .cli import main

__all__ = [
    "FileContext",
    "Finding",
    "LintEngine",
    "Pragmas",
    "RULE_CLASSES",
    "Rule",
    "SCENARIO_RULE_CLASSES",
    "SKIP_MARKER",
    "ScenarioAnalyzer",
    "default_rules",
    "discover_files",
    "lint_paths",
    "lint_source",
    "main",
    "render_json",
    "render_text",
    "rules_by_id",
    "scenario_rules",
    "scenario_rules_by_id",
]
