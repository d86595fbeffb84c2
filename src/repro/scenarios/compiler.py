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
it runs the schema's document checks, then lowers every cell, reading
only the entries the schema accepted.  ``FleetConfig`` is the only
judge of the lowered values; each problem of its
:class:`~repro.fleet.config.ConfigError` becomes one issue at the line
of the key behind it.  A document with any issue never compiles:
:func:`load_scenario` raises :class:`ScenarioError` carrying the same
line-anchored issues the lint pack reports, so scenario errors surface
as findings either way -- never as a runtime stack trace halfway into
a fleet run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..faults.prockill import KillPhase, KillPlan, WorkerKill
from ..fleet.config import ConfigError, FleetConfig
from ..workloads.styles import STYLES, WorkloadStyle
from . import schema
from .yamlish import MappingNode, ScalarNode, parse_text

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


def _scalar(doc: MappingNode, key: str, default):
    node = doc.get(key)
    if isinstance(node, ScalarNode) and node.value is not None:
        return node.value
    return default


def _style_lowering(
    doc: MappingNode, workload: str, vehicles: int,
) -> WorkloadStyle | None:
    """The ``style_spec`` of one cell.

    Plain scenarios (built-in workload, no roster styling) lower to
    ``None`` so the config stays dataclass-equal to a hand-built one;
    anything custom gets an explicit service table.
    """
    custom = schema.custom_styles(doc)
    roster = schema.roster_entries(doc)
    if workload not in custom and not any(
        "style" in entry or "services" in entry for entry in roster.values()
    ):
        return None
    table: list[int] = []
    for vehicle in range(vehicles):
        entry = roster.get(vehicle)
        style = workload if entry is None else _scalar(entry, "style", workload)
        services = None if entry is None else _scalar(entry, "services", None)
        if services is None:
            services = (custom[style] if style in custom
                        else STYLES[style].service_count(vehicle))
        table.append(services)
    return WorkloadStyle(name=workload, service_table=tuple(table))


def _kill_plan(doc: MappingNode) -> KillPlan | None:
    kills = tuple(
        WorkerKill(
            partition=entry.get("partition").value,
            barrier_index=entry.get("round").value,
            phase=_scalar(entry, "phase", KillPhase.ON_ADVANCE),
        )
        for entry in schema.kill_entries(doc)
    )
    return KillPlan(kills=kills) if kills else None


def build_cell_config(doc: MappingNode, cell: schema.CellSpec) -> FleetConfig:
    """Lower one matrix cell into a runnable ``FleetConfig``.

    Reads only the entries the schema accepts.  Raises
    :class:`~repro.fleet.config.ConfigError` when ``FleetConfig``
    refuses the cell's merged settings.
    """
    values = {
        key: setting.value
        for key, setting in schema.base_settings(doc).items()
    }
    values.update(dict(cell.overrides))
    vehicles = schema.effective_vehicles(doc, values)
    if vehicles is not None:
        values["vehicles"] = vehicles
    values.setdefault("workload", schema.config_defaults()["workload"])
    kwargs = {
        key: value for key, value in values.items()
        if key in schema.FLEET_FIELDS or key in schema.LINK_FIELDS
    }
    kwargs["kill_plan"] = _kill_plan(doc)
    kwargs["plan"] = schema.plan_shards(doc)
    kwargs["style_spec"] = _style_lowering(
        doc, values["workload"], vehicles or 0
    )
    return FleetConfig(**kwargs)


def _anchor(doc: MappingNode, cell: schema.CellSpec, name: str,
            axes: dict[str, list[schema.Setting]],
            base: dict[str, schema.Setting]) -> int:
    """The line behind one refused field of one cell: the sweep value
    that made the cell, else the base setting, else ``plan.shards``
    for the plan, else the document line."""
    overrides = dict(cell.overrides)
    if name in overrides:
        return next(setting.line for setting in axes[name]
                    if setting.value == overrides[name])
    if name in base:
        return base[name].line
    if name == "plan":
        return doc.get("plan").key_line("shards")
    return doc.line


def lower_cells(
    doc: MappingNode,
) -> tuple[list[CompiledCell], list[schema.Issue]]:
    """Check a document and lower every matrix cell of it.

    Returns the cells that lowered and every issue: the schema's
    document checks, then one per distinct ``FleetConfig`` refusal,
    anchored at the key behind it (SCN003 for the plan, SCN001
    otherwise) and naming the cells it refused.  Lowering reads only
    entries the schema accepted, so a rejected entry carries the
    schema's issue alone.
    """
    issues = schema.validate(doc)
    cells: list[CompiledCell] = []
    axes = dict(schema.sweep_axes(doc))
    base = schema.base_settings(doc)
    matrix = schema.expand_cells(doc)
    # (line, rule, message) -> the cells refused for it, in matrix order.
    refused: dict[tuple[int, str, str], list[str]] = {}
    for cell in matrix:
        try:
            config = build_cell_config(doc, cell)
        except ConfigError as exc:
            for name, message in exc.problems:
                key = (
                    _anchor(doc, cell, name, axes, base),
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
    return cells, sorted(issues)


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
    cells, issues = lower_cells(doc)
    if issues:
        raise ScenarioError(path, issues)
    budget = doc.get("budget")
    budget_cost = budget_cells = None
    if isinstance(budget, MappingNode):
        cost = _scalar(budget, "cost", None)
        cap = _scalar(budget, "cells", None)
        budget_cost = float(cost) if isinstance(cost, (int, float)) else None
        budget_cells = cap if isinstance(cap, int) else None
    default_name = os.path.splitext(os.path.basename(path))[0]
    return Scenario(
        name=str(_scalar(doc, "name", default_name)),
        description=str(_scalar(doc, "description", "")),
        path=path,
        cells=tuple(cells),
        budget_cost=budget_cost,
        budget_cells=budget_cells,
    )


def load_scenario(path: str) -> Scenario:
    """Compile one scenario file from disk."""
    with open(path, encoding="utf-8") as fh:
        return compile_text(fh.read(), path)
