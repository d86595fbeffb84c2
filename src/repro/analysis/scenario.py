"""Scenario lint pack: SCN001-005 over declarative fleet scenarios.

The ``--scenarios`` tier of vdaplint.  Scenario files (the YAML-subset
DSL of :mod:`repro.scenarios`) get the same treatment as Python source:
deterministic discovery, line-anchored findings, ``# vdaplint:`` pragma
suppression and baselines -- but the rules are about fleet experiments,
not ASTs:

* **SCN001** -- schema violations: unknown keys/sections, wrong types,
  missing required fields, constraint breaches (negative durations,
  ``partitions > vehicles`` in some matrix cell, roster/count drift);
* **SCN002** -- unit-dimension/scale errors: a key whose quantity stem
  matches a schema field but whose suffix disagrees (``barrier_ms`` for
  ``barrier_s``, ``v2v_latency_bytes``), via the shared unit vocabulary;
* **SCN003** -- dangling cross-references: undefined workload styles,
  plan shards naming unknown/duplicate/unassigned vehicle ids, fault
  kills aimed at partitions or rounds no matrix cell ever runs;
* **SCN004** -- barrier infeasibility: a matrix cell's ``barrier_s``
  exceeds the lookahead provable from the scenario's own link latency
  (or, when the scenario leaves links at their defaults, the tree-wide
  bound the ``--plan`` ConstResolver proves for this package);
* **SCN005** -- matrix cost budget: the expanded ``sweep:`` matrix
  exceeds a declared ``budget:`` -- either the plain cell-count cap or
  the kernel events every cell is expected to fire, priced from the
  planner's measured per-vehicle probe (:func:`~repro.analysis.plan.
  vehicle_costs`).

SCN001-003 are pure document checks delegated to
:mod:`repro.scenarios.schema`; SCN004 additionally consults the project
call graph and SCN005 runs the cost probe.  Both only run once a
document is structurally clean (pricing a malformed matrix would be
noise).

The scenarios package imports this package's unit vocabulary, so
everything from ``repro.scenarios`` is imported lazily inside methods --
the same cycle-breaking discipline :mod:`~repro.analysis.plan` uses for
``repro.fleet``.
"""

from __future__ import annotations

import os
from typing import Iterable, Optional, Sequence

from .callgraph import ProjectGraph, build_graph
from .commgraph import CommGraph
from .engine import (
    PARSE_ERROR_RULE,
    SKIP_MARKER,
    Finding,
    Pragmas,
    Rule,
)
from .plan import PROBE_HORIZON_S, vehicle_costs

__all__ = [
    "SCENARIO_RULE_CLASSES",
    "ScenarioAnalyzer",
    "discover_scenario_files",
    "scenario_rules",
    "scenario_rules_by_id",
]

#: The tree whose lookahead proof backs SCN004: this installed package
#: (the code the scenario will execute).
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_EPS = 1e-9

#: Scenario files the directory walk picks up.
SCENARIO_EXTENSIONS: tuple[str, ...] = (".yaml", ".yml")


class ScenarioSchemaViolation(Rule):
    """A scenario document that breaks the DSL schema."""

    id = "SCN001"
    name = "scenario-schema-violation"
    description = (
        "a scenario document breaks the DSL schema: unknown keys or "
        "sections, wrong types, missing required fields, or constraint "
        "breaches in some matrix cell"
    )


class ScenarioUnitError(Rule):
    """A scenario key whose unit suffix contradicts the schema field."""

    id = "SCN002"
    name = "scenario-unit-error"
    description = (
        "a scenario key's unit suffix disagrees with the schema field "
        "it matches in dimension or scale (barrier_ms for barrier_s, "
        "v2v_latency_bytes for v2v_latency_s)"
    )


class ScenarioDanglingReference(Rule):
    """A scenario reference that resolves to nothing."""

    id = "SCN003"
    name = "scenario-dangling-reference"
    description = (
        "a scenario cross-reference dangles: undefined workload styles, "
        "plan shards naming unknown/duplicate/unassigned vehicle ids, "
        "or fault kills aimed at partitions/rounds no cell ever runs"
    )


class ScenarioBarrierInfeasible(Rule):
    """A matrix cell whose barrier step outruns the provable lookahead."""

    id = "SCN004"
    name = "scenario-barrier-infeasible"
    description = (
        "a matrix cell configures barrier_s beyond the lookahead "
        "provable from the scenario's link latency (or the tree-wide "
        "bound when links keep their defaults); conservative sync "
        "would deliver envelopes into a partition's past"
    )


class ScenarioBudgetExceeded(Rule):
    """An expanded matrix that blows its declared budget."""

    id = "SCN005"
    name = "scenario-budget-exceeded"
    description = (
        "the expanded sweep matrix exceeds the scenario's declared "
        "budget: more cells than the cap, or the measured per-vehicle "
        "event cost summed over every cell tops the cost limit"
    )


SCENARIO_RULE_CLASSES: tuple[type[Rule], ...] = (
    ScenarioSchemaViolation,
    ScenarioUnitError,
    ScenarioDanglingReference,
    ScenarioBarrierInfeasible,
    ScenarioBudgetExceeded,
)


def scenario_rules() -> list[Rule]:
    """One instance of every SCN rule, in catalogue order."""
    return [cls() for cls in SCENARIO_RULE_CLASSES]


def scenario_rules_by_id() -> dict[str, Rule]:
    """The SCN catalogue keyed by rule id."""
    return {rule.id: rule for rule in scenario_rules()}


def discover_scenario_files(paths: Iterable[str]) -> list[str]:
    """Expand files/directories into a sorted list of scenario files.

    Mirrors :func:`~repro.analysis.engine.discover_files` -- including
    the ``.vdaplint-skip`` opt-out for fixture corpora -- but collects
    ``.yaml``/``.yml`` instead of ``.py``.
    """
    out: list[str] = []
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(SCENARIO_EXTENSIONS):
                out.append(path)
        elif os.path.isdir(path):
            # dirnames.sort() pins the walk order deterministically.
            for dirpath, dirnames, filenames in os.walk(path):  # vdaplint: disable=DET004
                dirnames.sort()
                if SKIP_MARKER in filenames:
                    dirnames[:] = []  # do not descend further either
                    continue
                for fname in sorted(filenames):
                    if fname.endswith(SCENARIO_EXTENSIONS):
                        out.append(os.path.join(dirpath, fname))
        else:
            raise FileNotFoundError(path)
    return sorted(set(out))


class ScenarioAnalyzer:
    """Run the SCN pack over scenario files.

    SCN001-003 come straight from :func:`repro.scenarios.schema.
    validate`; SCN004/005 run only when that structural pass is clean,
    SCN004 lazily building (and caching) one call graph over this
    package for the lookahead proof, SCN005 pricing each cell with the
    measured cost probe.  Findings honor the same
    ``# vdaplint:`` pragmas as the AST packs -- scenario files take
    them as YAML comments.
    """

    def __init__(self, rules: Optional[Iterable[Rule]] = None,
                 graph: Optional[ProjectGraph] = None):
        selected = scenario_rules() if rules is None else list(rules)
        self.rules: dict[str, Rule] = {rule.id: rule for rule in selected}
        self._graph = graph
        self._lookahead: Optional[tuple[Optional[float], str]] = None

    def analyze_files(self, files: Sequence[str]) -> list[Finding]:
        """Analyze scenario files; findings in deterministic order."""
        findings: list[Finding] = []
        for path in files:
            findings.extend(self.analyze_file(path))
        return sorted(findings)

    def analyze_file(self, path: str) -> list[Finding]:
        """Analyze one scenario file from disk."""
        with open(path, encoding="utf-8") as fh:
            return self.analyze_source(fh.read(), path)

    def analyze_source(self, source: str, path: str) -> list[Finding]:
        """Analyze scenario source text."""
        from ..scenarios.schema import validate
        from ..scenarios.yamlish import ScenarioSyntaxError, parse_text

        try:
            doc = parse_text(source, path)
        except ScenarioSyntaxError as exc:
            # Parse failures mirror the AST engine's E999: always
            # reported, never pragma-suppressible.
            return [self._finding(
                source, path, exc.line, PARSE_ERROR_RULE,
                f"scenario syntax error: {exc.message}",
            )]
        issues = validate(doc)
        findings = [
            self._finding(source, path, issue.line, issue.rule,
                          issue.message)
            for issue in issues if issue.rule in self.rules
        ]
        if not issues:
            if "SCN004" in self.rules:
                findings.extend(self._barrier_infeasible(source, path, doc))
            if "SCN005" in self.rules:
                findings.extend(self._budget_overruns(source, path, doc))
        unique: dict[tuple, Finding] = {}
        for finding in findings:
            key = (finding.path, finding.line, finding.col, finding.rule)
            unique.setdefault(key, finding)
        ordered = sorted(unique.values())
        pragmas = Pragmas(source)
        return [
            finding for finding in ordered
            if not pragmas.suppressed(finding.line, finding.rule)
        ]

    # -- SCN004 ------------------------------------------------------------

    def _barrier_infeasible(self, source: str, path: str,
                            doc) -> list[Finding]:
        """Re-prove FLEET001/002 per matrix cell with scenario latencies."""
        from ..scenarios import schema

        out: list[Finding] = []
        base = schema.base_settings(doc)
        axes = dict(schema.sweep_axes(doc))
        for cell in schema.expand_cells(doc):
            values = {key: setting.value for key, setting in base.items()}
            values.update(dict(cell.overrides))
            step = values.get("barrier_s")
            if not isinstance(step, (int, float)) or isinstance(step, bool):
                continue  # defaults derive the step from the latency: feasible
            latency = values.get("v2v_latency_s")
            if isinstance(latency, (int, float)) and not isinstance(
                latency, bool
            ):
                bound = float(latency)
                origin = "the scenario's v2v_latency_s"
            else:
                bound, origin = self._tree_lookahead()
            line = self._anchor(doc, base, axes, cell, "barrier_s")
            if bound is None or bound <= 0:
                out.append(self._finding(
                    source, path, line, "SCN004",
                    f"cell `{cell.name}`: barrier_s={step:g} has no "
                    f"provable lookahead to cover it ({origin}); "
                    "conservative sync has no safe barrier step",
                ))
            elif step > bound + _EPS:
                out.append(self._finding(
                    source, path, line, "SCN004",
                    f"cell `{cell.name}`: barrier_s={step:g} exceeds the "
                    f"provable lookahead ({bound:g}s from {origin}); "
                    "conservative sync would deliver envelopes into a "
                    "partition's past and trace hashes diverge",
                ))
        return out

    def _tree_lookahead(self) -> tuple[Optional[float], str]:
        """The package tree's provable lookahead bound (memoized)."""
        if self._lookahead is None:
            comm = CommGraph(self._ensure_graph())
            bound, reason = comm.lookahead()
            if bound is not None:
                self._lookahead = (bound, "the tree-wide min link latency")
            else:
                self._lookahead = (None, reason)
        return self._lookahead

    # -- SCN005 ------------------------------------------------------------

    def _budget_overruns(self, source: str, path: str,
                         doc) -> list[Finding]:
        from ..scenarios import schema
        from ..scenarios.yamlish import MappingNode, ScalarNode

        budget = doc.get("budget")
        if not isinstance(budget, MappingNode):
            return []
        out: list[Finding] = []
        cells = schema.expand_cells(doc)
        cap_node = budget.get("cells")
        if isinstance(cap_node, ScalarNode) and isinstance(
            cap_node.value, int
        ) and not isinstance(cap_node.value, bool):
            cap = cap_node.value
            if len(cells) > cap:
                out.append(self._finding(
                    source, path, budget.key_line("cells"), "SCN005",
                    f"sweep expands to {len(cells)} matrix cells, over "
                    f"the declared budget of {cap}",
                ))
        cost_node = budget.get("cost")
        if isinstance(cost_node, ScalarNode) and isinstance(
            cost_node.value, (int, float)
        ) and not isinstance(cost_node.value, bool):
            declared = float(cost_node.value)
            total = self._matrix_cost(doc, cells)
            if total is not None and total > declared + _EPS:
                out.append(self._finding(
                    source, path, budget.key_line("cost"), "SCN005",
                    f"matrix costs ~{total:.0f} kernel events under the "
                    f"measured cost model ({len(cells)} cells), over the "
                    f"declared budget of {declared:g}",
                ))
        return out

    def _matrix_cost(self, doc, cells) -> Optional[float]:
        """Expected kernel events of the whole matrix: each cell's measured
        probe events, scaled from the probe horizon to the run duration."""
        from ..scenarios.compiler import build_cell_config

        total = 0.0
        for cell in cells:
            try:
                config = build_cell_config(doc, cell)
            except ValueError:
                return None  # lowering failures already carry findings
            total += sum(vehicle_costs(config)) \
                * config.duration_s / PROBE_HORIZON_S
        return total

    # -- plumbing ----------------------------------------------------------

    def _ensure_graph(self) -> ProjectGraph:
        if self._graph is None:
            self._graph = build_graph([_PACKAGE_ROOT])
        return self._graph

    def _anchor(self, doc, base, axes, cell, key: str) -> int:
        """The line that wrote ``key`` for one cell: the sweep axis
        value when swept, else the base setting, else the document."""
        overridden = dict(cell.overrides)
        if key in overridden and key in axes:
            for setting in axes[key]:
                if setting.value == overridden[key]:
                    return setting.line
        setting = base.get(key)
        if setting is not None:
            return setting.line
        return doc.line

    def _finding(self, source: str, path: str, line: int, rule_id: str,
                 message: str) -> Finding:
        lines = source.splitlines()
        snippet = lines[line - 1].strip() if 1 <= line <= len(lines) else ""
        return Finding(path=path, line=line, col=1, rule=rule_id,
                       message=message, snippet=snippet)
