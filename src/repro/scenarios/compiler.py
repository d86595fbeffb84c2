"""Scenario compiler: validated documents -> runnable ``FleetConfig``\\ s.

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

A document with schema issues never compiles: :func:`load_scenario`
raises :class:`ScenarioError` carrying the same line-anchored issues the
lint pack reports, so scenario errors surface as findings either way --
never as a runtime stack trace halfway into a fleet run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..faults.prockill import KillPhase, KillPlan, WorkerKill
from ..fleet.config import FleetConfig
from ..workloads.styles import STYLES, WorkloadStyle
from . import schema
from .yamlish import MappingNode, ScalarNode, SequenceNode, parse_text

__all__ = ["CompiledCell", "Scenario", "ScenarioError", "build_cell_config",
           "compile_text", "load_scenario", "lower_cells"]


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


def _roster_entries(doc: MappingNode) -> list[MappingNode]:
    roster = doc.get("vehicles")
    if not isinstance(roster, SequenceNode):
        return []
    return [item for item in roster.items if isinstance(item, MappingNode)]


def _custom_styles(doc: MappingNode) -> dict[str, int]:
    """``styles:`` section as ``{id: services}``."""
    styles = doc.get("styles")
    out: dict[str, int] = {}
    if not isinstance(styles, MappingNode):
        return out
    for style_id, node in styles.items():
        if not isinstance(node, MappingNode):
            continue
        services = node.get("services")
        out[style_id] = (
            int(services.value) if isinstance(services, ScalarNode) else 1
        )
    return out


def _style_lowering(
    doc: MappingNode, workload: str, vehicles: int,
) -> tuple[str, WorkloadStyle | None]:
    """(workload name, style_spec) for one cell.

    Plain scenarios (built-in workload, no roster styling) lower to
    ``style_spec=None`` so the config stays dataclass-equal to a
    hand-built one; anything custom gets an explicit service table.
    """
    custom = _custom_styles(doc)
    entries = _roster_entries(doc)
    styled = any("style" in e or "services" in e for e in entries)
    if workload not in custom and not styled:
        return workload, None
    table: list[int] = []
    by_id: dict[int, MappingNode] = {}
    for entry in entries:
        id_node = entry.get("id")
        if isinstance(id_node, ScalarNode) and isinstance(id_node.value, int):
            by_id[id_node.value] = entry
    for vehicle in range(vehicles):
        entry = by_id.get(vehicle)
        services_node = entry.get("services") if entry is not None else None
        style_node = entry.get("style") if entry is not None else None
        if isinstance(services_node, ScalarNode) and isinstance(
            services_node.value, int
        ):
            table.append(services_node.value)
            continue
        style_name = workload
        if isinstance(style_node, ScalarNode) and isinstance(
            style_node.value, str
        ):
            style_name = style_node.value
        if style_name in custom:
            table.append(custom[style_name])
        elif style_name in STYLES:
            table.append(STYLES[style_name].service_count(vehicle))
        else:
            table.append(1)
    return workload, WorkloadStyle(name=workload, service_table=tuple(table))


def _kill_plan(doc: MappingNode) -> KillPlan | None:
    faults = doc.get("faults")
    if not isinstance(faults, MappingNode):
        return None
    kills = faults.get("kills")
    if not isinstance(kills, SequenceNode) or not kills.items:
        return None
    events = []
    for item in kills.items:
        if not isinstance(item, MappingNode):
            continue
        partition = _scalar(item, "partition", None)
        round_index = _scalar(item, "round", None)
        phase = _scalar(item, "phase", KillPhase.ON_ADVANCE)
        if isinstance(partition, int) and isinstance(round_index, int):
            events.append(
                WorkerKill(
                    partition=partition, barrier_index=round_index,
                    phase=str(phase),
                )
            )
    return KillPlan(kills=tuple(events)) if events else None


def _plan_shards(doc: MappingNode) -> tuple[tuple[int, ...], ...] | None:
    plan = doc.get("plan")
    if not isinstance(plan, MappingNode):
        return None
    shards_node = plan.get("shards")
    if not isinstance(shards_node, SequenceNode):
        return None
    shards = []
    for shard_node in shards_node.items:
        if not isinstance(shard_node, SequenceNode):
            return None
        shard = []
        for entry in shard_node.items:
            if not isinstance(entry, ScalarNode) or not isinstance(
                entry.value, int
            ):
                return None
            shard.append(entry.value)
        shards.append(tuple(shard))
    return tuple(shards)


def build_cell_config(doc: MappingNode, cell: schema.CellSpec) -> FleetConfig:
    """Lower one validated matrix cell into a runnable ``FleetConfig``.

    Raises ``ValueError`` (from ``FleetConfig``) when the cell's merged
    settings are not runnable.
    """
    values = {
        key: setting.value
        for key, setting in schema.base_settings(doc).items()
    }
    values.update(dict(cell.overrides))
    vehicles = schema.effective_vehicles(doc, values)
    if vehicles is not None:
        values["vehicles"] = vehicles
    workload = values.get("workload")
    if not isinstance(workload, str):
        workload = str(schema.config_defaults().get("workload", "uniform"))
    workload, style_spec = _style_lowering(
        doc, workload, values.get("vehicles", 0) or 1
    )
    values["workload"] = workload
    kwargs = {
        key: value for key, value in values.items()
        if key in schema.FLEET_FIELDS or key in schema.LINK_FIELDS
    }
    kill_plan = _kill_plan(doc)
    if kill_plan is not None:
        kwargs["kill_plan"] = kill_plan
    shards = _plan_shards(doc)
    if shards is not None:
        kwargs["plan"] = shards
    if style_spec is not None:
        kwargs["style_spec"] = style_spec
    return FleetConfig(**kwargs)


def lower_cells(
    doc: MappingNode,
) -> tuple[list[CompiledCell], list[schema.Issue]]:
    """Lower every matrix cell of a validated document.

    Returns the cells that lowered and one SCN001 issue per cell that
    did not (``FleetConfig`` refused its settings, e.g. a barrier step
    beyond the link latency).  :func:`compile_text` raises on the
    issues and the lint pack reports them, so both agree on which cells
    are not valid fleets.
    """
    cells: list[CompiledCell] = []
    issues: list[schema.Issue] = []
    for cell in schema.expand_cells(doc):
        try:
            config = build_cell_config(doc, cell)
        except ValueError as exc:
            issues.append(schema.Issue(
                line=doc.line, rule="SCN001",
                message=f"cell `{cell.name}` fails to lower: {exc}",
            ))
            continue
        cells.append(CompiledCell(cell.name, cell.overrides, config))
    return cells, issues


def compile_text(text: str, path: str = "<scenario>") -> Scenario:
    """Parse, validate, and lower scenario source text.

    Raises :class:`~repro.scenarios.yamlish.ScenarioSyntaxError` on
    malformed text and :class:`ScenarioError` on validation or lowering
    failures; a returned :class:`Scenario` is runnable.
    """
    doc = parse_text(text, path)
    issues = schema.validate(doc)
    if issues:
        raise ScenarioError(path, issues)
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
