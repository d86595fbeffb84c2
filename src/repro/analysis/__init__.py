"""Static analysis layer: the ``vdaplint`` determinism & safety linter.

Everything the reproduction claims -- Fig 2/3 and Table I regeneration,
seeded fault storms, "same seed => byte-identical trace" -- rests on the
sim kernel's determinism contract.  This package makes that contract a
property checked on every commit instead of a convention in DESIGN.md:

* a from-scratch, stdlib-``ast`` lint engine (:mod:`.engine`) with a
  single-file rule pack encoding the platform invariants (:mod:`.rules`),
  inline suppression pragmas, and a baseline file for grandfathered
  findings (:mod:`.baseline`);
* a **whole-program** layer: a project-wide symbol table and call graph
  (:mod:`.callgraph`) feeding an interprocedural nondeterminism taint
  pass (:mod:`.dataflow`) -- DET101/SIM101/RACE001 catch cross-module
  violations no single file can show -- and the MP001-003
  multiprocess-safety rules for the fleet layer (:mod:`.mp`: spawn
  payload picklability, fork-crossing global writes, pipe-protocol
  exhaustiveness);
* a **semantic** tier: a forward abstract interpreter inferring
  physical units from naming conventions and ``# unit:`` pragmas
  (:mod:`.units` -- UNIT001/UNIT002/UNIT003) and a path-sensitive
  resource-protocol checker over ``sim.resources`` grants
  (:mod:`.protocol` -- RES101/RES102/PROTO001), both run by one serial
  pass that parses each file once (:mod:`.semantic`);
* a **scenario** tier (:mod:`.scenario`): static validation of
  declarative fleet scenario files (:mod:`repro.scenarios`) -- schema,
  unit suffixes and cross-references (SCN001-003), the compiler's
  per-cell lowering failures (SCN001), and matrix cost budgets priced
  by the fleet planner's measured probe (SCN005, ``--scenarios``);
* a CLI with stable exit codes (:mod:`.cli`)::

    python -m repro.analysis src/repro --strict
    python -m repro.analysis --whole-program src/repro tests --strict
    python -m repro.analysis --scenarios scenarios --strict
    vdaplint --list-rules
"""

from .baseline import Baseline, fingerprint_findings
from .callgraph import ProjectGraph, build_graph, infer_module_name
from .dataflow import (
    FLOW_RULE_CLASSES,
    TaintAnalysis,
    WholeProgramAnalyzer,
    flow_rules,
    flow_rules_by_id,
)
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
from .mp import MP_RULE_CLASSES, MpAnalyzer, mp_rules, mp_rules_by_id
from .protocol import PROTOCOL_RULE_CLASSES, ProtocolChecker
from .reporter import render_json, render_text
from .rules import RULE_CLASSES, default_rules, rules_by_id
from .scenario import (
    SCENARIO_RULE_CLASSES,
    ScenarioAnalyzer,
    discover_scenario_files,
    scenario_rules,
    scenario_rules_by_id,
)
from .semantic import (
    SEMANTIC_RULE_CLASSES,
    analyze_files,
    semantic_rules,
    semantic_rules_by_id,
)
from .units import (
    UNIT_RULE_CLASSES,
    ModuleSummary,
    SignatureIndex,
    Unit,
    UnitChecker,
    parse_name_unit,
    parse_unit_expr,
    summarize_module,
)
from .cli import main

__all__ = [
    "Baseline",
    "FLOW_RULE_CLASSES",
    "FileContext",
    "Finding",
    "LintEngine",
    "MP_RULE_CLASSES",
    "ModuleSummary",
    "MpAnalyzer",
    "PROTOCOL_RULE_CLASSES",
    "Pragmas",
    "ProjectGraph",
    "ProtocolChecker",
    "RULE_CLASSES",
    "Rule",
    "SCENARIO_RULE_CLASSES",
    "SEMANTIC_RULE_CLASSES",
    "SKIP_MARKER",
    "ScenarioAnalyzer",
    "SignatureIndex",
    "TaintAnalysis",
    "UNIT_RULE_CLASSES",
    "Unit",
    "UnitChecker",
    "WholeProgramAnalyzer",
    "analyze_files",
    "build_graph",
    "default_rules",
    "discover_files",
    "discover_scenario_files",
    "fingerprint_findings",
    "flow_rules",
    "flow_rules_by_id",
    "infer_module_name",
    "lint_paths",
    "lint_source",
    "main",
    "mp_rules",
    "mp_rules_by_id",
    "parse_name_unit",
    "parse_unit_expr",
    "render_json",
    "render_text",
    "rules_by_id",
    "scenario_rules",
    "scenario_rules_by_id",
    "semantic_rules",
    "semantic_rules_by_id",
    "summarize_module",
]
