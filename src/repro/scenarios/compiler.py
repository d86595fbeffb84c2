"""Scenario compiler: documents -> runnable ``FleetConfig``\\ s, or issues.

The lowering contract is deliberately boring: every scalar field in
``fleet:`` and ``links:`` is a :class:`~repro.fleet.config.FleetConfig`
keyword of the same name, so a scenario that only sets those fields
compiles to a config *equal* (dataclass equality) to the one a test
would build in Python -- which is what makes the byte-identical
trace-hash acceptance check meaningful rather than coincidental.

On top of that the compiler lowers:

* the ``vehicles:`` roster and ``styles:`` section into a
  :class:`~repro.workloads.styles.WorkloadStyle` with an explicit
  per-vehicle ``service_table`` (carried via ``FleetConfig.style_spec``);
* ``faults.kills`` into a picklable :class:`~repro.faults.prockill.
  KillPlan`;
* ``plan.shards`` into an explicit shard assignment;
* ``sweep:`` axes into the deterministic cell matrix (axes sorted by
  key, values in document order).

:func:`lower_cells` is the one entry point for checking a document:
one :func:`~repro.scenarios.schema.check` walk reports the document's
issues and records what it accepted, and every cell is lowered from
that :class:`~repro.scenarios.schema.Accepted` record alone.
``FleetConfig`` is the only judge of the lowered values; each problem
of its :class:`~repro.fleet.config.ConfigError` becomes one issue at
the line of the key behind it.  A document with any issue never compiles:
:func:`load_scenario` raises :class:`ScenarioError` carrying the same
line-anchored issues the lint pack reports, so scenario errors surface
as findings either way -- never as a runtime stack trace halfway into
a fleet run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..fleet.config import ConfigError, FleetConfig
from ..workloads.styles import STYLES, WorkloadStyle
from . import schema
from .yamlish import MappingNode, parse_text

__all__ = ["CompiledCell", "Scenario", "ScenarioError", "build_cell_config",
           "compile_text", "load_scenario", "lower_cells", "validate"]


class ScenarioError(ValueError):
    """A scenario failed validation or lowering; carries its issues."""

    def __init__(self, path: str, issues: list[schema.Issue]):
        self.path = path
        self.issues = list(issues)
        lines = [
            f"{path}:{issue.line}: {issue.rule} {issue.message}"
            for issue in issues
        ]
        super().__init__(
            "scenario failed validation:\n" + "\n".join(lines)
        )


@dataclass(frozen=True)
class CompiledCell:
    """One matrix cell, lowered to a runnable config."""

    name: str
    overrides: tuple[tuple[str, object], ...]
    config: FleetConfig


@dataclass(frozen=True)
class Scenario:
    """A validated, fully lowered scenario document."""

    name: str
    description: str
    path: str
    cells: tuple[CompiledCell, ...]
    budget_cost: float | None = None
    budget_cells: int | None = None

    def cell(self, index: int) -> CompiledCell:
        """One cell by matrix position (the ``--cell N`` accessor)."""
        if not 0 <= index < len(self.cells):
            raise IndexError(
                f"scenario {self.name!r} has {len(self.cells)} cells; "
                f"cell {index} does not exist"
            )
        return self.cells[index]


def _style_lowering(
    accepted: schema.Accepted, workload: str, vehicles: int,
) -> WorkloadStyle | None:
    """The ``style_spec`` of one cell.

    Plain scenarios (built-in workload, no roster styling) lower to
    ``None`` so the config stays dataclass-equal to a hand-built one;
    anything custom gets an explicit service table.
    """
    custom, roster = accepted.styles, accepted.roster
    if workload not in custom and not any(
        "style" in entry or "services" in entry for entry in roster.values()
    ):
        return None
    table: list[int] = []
    for vehicle in range(vehicles):
        entry = roster.get(vehicle, {})
        style = entry.get("style", workload)
        services = entry.get("services")
        if services is None:
            services = (custom[style] if style in custom
                        else STYLES[style].service_count(vehicle))
        table.append(services)
    return WorkloadStyle(name=workload, service_table=tuple(table))


def build_cell_config(accepted: schema.Accepted,
                      cell: schema.CellSpec) -> FleetConfig:
    """Lower one matrix cell of a document's accepted entries into a
    runnable ``FleetConfig``.

    Raises :class:`~repro.fleet.config.ConfigError` when ``FleetConfig``
    refuses the cell's merged settings.
    """
    values = accepted.values(cell)
    values["kill_plan"] = accepted.kill_plan
    values["plan"] = None if accepted.plan is None else accepted.plan.value
    values["style_spec"] = _style_lowering(
        accepted, values["workload"], values["vehicles"]
    )
    return FleetConfig(**values)


def _anchor(doc: MappingNode, accepted: schema.Accepted,
            cell: schema.CellSpec, name: str) -> int:
    """The line behind one refused field of one cell: the sweep value
    that made the cell, else the base setting, else ``plan.shards``
    for the plan, else the document line."""
    overrides = dict(cell.overrides)
    if name in overrides:
        return next(setting.line for setting in accepted.axes[name]
                    if setting.value == overrides[name])
    if name in accepted.base:
        return accepted.base[name].line
    if name == "plan":
        return accepted.plan.line
    return doc.line


def lower_cells(
    doc: MappingNode,
) -> tuple[list[CompiledCell], list[schema.Issue], schema.Accepted]:
    """Check a document and lower every matrix cell of it.

    Returns the cells that lowered, every issue, and the schema's
    :class:`~repro.scenarios.schema.Accepted` record.  The issues are
    the schema's, then one per distinct ``FleetConfig`` refusal,
    anchored at the key behind it (SCN003 for the plan, SCN001
    otherwise) and naming the cells it refused.  Lowering reads only
    the accepted record, so a rejected entry carries the schema's issue
    alone.
    """
    issues, accepted = schema.check(doc)
    cells: list[CompiledCell] = []
    matrix = accepted.cells()
    # (line, rule, message) -> the cells refused for it, in matrix order.
    refused: dict[tuple[int, str, str], list[str]] = {}
    for cell in matrix:
        try:
            config = build_cell_config(accepted, cell)
        except ConfigError as exc:
            for name, message in exc.problems:
                key = (
                    _anchor(doc, accepted, cell, name),
                    "SCN003" if name == "plan" else "SCN001",
                    message,
                )
                refused.setdefault(key, []).append(cell.name)
            continue
        cells.append(CompiledCell(cell.name, cell.overrides, config))
    issues.extend(
        schema.Issue(
            line=line,
            rule=rule,
            message=f"{_refused_cells(names, len(matrix))} to lower: {message}",
            cells=tuple(names),
        )
        for (line, rule, message), names in refused.items()
    )
    return cells, sorted(issues), accepted


def _refused_cells(names: list[str], total: int) -> str:
    """The subject of a lowering finding: its cells, or every cell."""
    if len(names) == 1:
        return f"cell `{names[0]}` fails"
    if len(names) == total:
        return "every cell fails"
    return "cells " + ", ".join(f"`{name}`" for name in names) + " fail"


def validate(doc: MappingNode) -> list[schema.Issue]:
    """Every issue in one parsed scenario document, the schema's and the
    lowering's together (see :func:`lower_cells`)."""
    return lower_cells(doc)[1]


def compile_text(text: str, path: str = "<scenario>") -> Scenario:
    """Parse, validate, and lower scenario source text.

    Raises :class:`~repro.scenarios.yamlish.ScenarioSyntaxError` on
    malformed text and :class:`ScenarioError` on validation or lowering
    failures; a returned :class:`Scenario` is runnable.
    """
    doc = parse_text(text, path)
    cells, issues, accepted = lower_cells(doc)
    if issues:
        raise ScenarioError(path, issues)
    cost = accepted.budget.get("cost")
    cap = accepted.budget.get("cells")
    return Scenario(
        name=accepted.meta.get(
            "name", os.path.splitext(os.path.basename(path))[0]
        ),
        description=accepted.meta.get("description", ""),
        path=path,
        cells=tuple(cells),
        budget_cost=None if cost is None else float(cost.value),
        budget_cells=None if cap is None else cap.value,
    )


def load_scenario(path: str) -> Scenario:
    """Compile one scenario file from disk."""
    with open(path, encoding="utf-8") as fh:
        return compile_text(fh.read(), path)
