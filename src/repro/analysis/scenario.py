"""Scenario lint pack: SCN001-003 and SCN005 over fleet scenario files.

The ``--scenarios`` tier of vdaplint.  Scenario files (the YAML-subset
DSL of :mod:`repro.scenarios`) get the same treatment as Python source:
deterministic discovery, line-anchored findings and ``# vdaplint:``
pragma suppression -- but the rules are about fleet experiments,
not ASTs:

* **SCN001** -- schema violations: unknown keys/sections, wrong types,
  missing required fields, roster/count drift, and every value
  ``FleetConfig`` refuses in some matrix cell (a negative duration,
  ``partitions > vehicles``, a barrier step beyond the link latency);
* **SCN002** -- unit-dimension/scale errors: a key whose quantity stem
  matches a schema field but whose suffix disagrees (``barrier_ms`` for
  ``barrier_s``, ``v2v_latency_bytes``), via the shared unit vocabulary;
* **SCN003** -- dangling cross-references: undefined workload styles,
  plan shards ``FleetConfig`` refuses (unknown, duplicate or unassigned
  vehicle ids), fault kills aimed at partitions or rounds no matrix
  cell ever runs;
* **SCN005** -- matrix cost budget: the expanded ``sweep:`` matrix
  exceeds a declared ``budget:`` -- either the plain cell-count cap or
  the kernel events every cell is expected to fire, priced from the
  fleet planner's measured per-vehicle probe (:func:`~repro.fleet.plan.
  vehicle_costs`).

SCN001-003 come from :func:`repro.scenarios.compiler.lower_cells` --
the same path ``compile_text`` takes: one schema walk of the document,
then every ``FleetConfig`` refusal of every cell, anchored at the key
behind it.  SCN005 reads the budget and the matrix from that walk's
:class:`~repro.scenarios.schema.Accepted` record, and prices the
lowered configs with the cost probe.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..fleet.plan import PROBE_HORIZON_S, vehicle_costs
from ..scenarios.compiler import lower_cells
from ..scenarios.yamlish import ScenarioSyntaxError, parse_text
from .engine import PARSE_ERROR_RULE, Finding, Pragmas, Rule

__all__ = [
    "SCENARIO_EXTENSIONS",
    "SCENARIO_RULE_CLASSES",
    "ScenarioAnalyzer",
    "scenario_rules",
    "scenario_rules_by_id",
]

_EPS = 1e-9

#: Scenario files the directory walk picks up (see
#: :func:`~repro.analysis.engine.discover_files`).
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
    ScenarioBudgetExceeded,
)


def scenario_rules() -> list[Rule]:
    """One instance of every SCN rule, in catalogue order."""
    return [cls() for cls in SCENARIO_RULE_CLASSES]


def scenario_rules_by_id() -> dict[str, Rule]:
    """The SCN catalogue keyed by rule id."""
    return {rule.id: rule for rule in scenario_rules()}


class ScenarioAnalyzer:
    """Run the SCN pack over scenario files.

    SCN001-003 come straight from :func:`repro.scenarios.compiler.
    lower_cells`.  SCN005 checks the cell cap when the document checks
    pass, and prices the matrix with the measured cost probe when every
    cell lowered too.  Findings honor the same ``# vdaplint:`` pragmas
    as the AST packs -- scenario files take them as YAML comments.
    """

    def __init__(self, rules: Optional[Iterable[Rule]] = None):
        selected = scenario_rules() if rules is None else list(rules)
        self.rules: dict[str, Rule] = {rule.id: rule for rule in selected}

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
        try:
            doc = parse_text(source, path)
        except ScenarioSyntaxError as exc:
            # Parse failures mirror the AST engine's E999: always
            # reported, never pragma-suppressible.
            return [self._finding(
                source, path, exc.line, PARSE_ERROR_RULE,
                f"scenario syntax error: {exc.message}",
            )]
        cells, issues, accepted = lower_cells(doc)
        findings = [
            self._finding(source, path, issue.line, issue.rule,
                          issue.message)
            for issue in issues if issue.rule in self.rules
        ]
        if "SCN005" in self.rules and all(issue.cells for issue in issues):
            # The cap needs clean document checks; the cost needs every
            # cell lowered (a failing cell carries its own finding).
            configs = None if issues else [cell.config for cell in cells]
            findings.extend(
                self._budget_overruns(source, path, accepted, configs)
            )
        pragmas = Pragmas(source)
        return [
            finding for finding in sorted(set(findings))
            if not pragmas.suppressed(finding.line, finding.rule)
        ]

    # -- SCN005 ------------------------------------------------------------

    def _budget_overruns(self, source: str, path: str, accepted,
                         configs: Optional[list]) -> list[Finding]:
        """``configs`` holds every cell's lowered config, or ``None``
        when some cell failed to lower (the cost cap is then unpriced)."""
        out: list[Finding] = []
        count = len(accepted.cells())
        cap = accepted.budget.get("cells")
        if cap is not None and count > cap.value:
            out.append(self._finding(
                source, path, cap.line, "SCN005",
                f"sweep expands to {count} matrix cells, over "
                f"the declared budget of {cap.value}",
            ))
        cost = accepted.budget.get("cost")
        if configs is not None and cost is not None:
            declared = float(cost.value)
            total = self._matrix_cost(configs)
            if total > declared + _EPS:
                out.append(self._finding(
                    source, path, cost.line, "SCN005",
                    f"matrix costs ~{total:.0f} kernel events under the "
                    f"measured cost model ({count} cells), over the "
                    f"declared budget of {declared:g}",
                ))
        return out

    @staticmethod
    def _matrix_cost(configs: list) -> float:
        """Expected kernel events of the whole matrix: each cell's measured
        probe events, scaled from the probe horizon to the run duration."""
        return sum(
            sum(vehicle_costs(config)) * config.duration_s / PROBE_HORIZON_S
            for config in configs
        )

    # -- plumbing ----------------------------------------------------------

    def _finding(self, source: str, path: str, line: int, rule_id: str,
                 message: str) -> Finding:
        lines = source.splitlines()
        snippet = lines[line - 1].strip() if 1 <= line <= len(lines) else ""
        return Finding(path=path, line=line, col=1, rule=rule_id,
                       message=message, snippet=snippet)
