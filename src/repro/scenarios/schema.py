"""Scenario document schema: what a document alone can get wrong.

This module is the *static semantics* of the scenario DSL.  It knows the
section layout (``fleet:``, ``links:``, ``styles:``, ``vehicles:``,
``faults:``, ``plan:``, ``sweep:``, ``budget:``), the scalar type of
every field, and how a ``sweep:`` block expands into matrix cells -- and
it reports violations as line-anchored :class:`Issue` records.  It does
not judge a fleet's values: whether a duration is positive, whether a
cell's partitions fit its vehicles, whether plan shards cover the fleet
or a barrier step fits the link latency is for
:class:`~repro.fleet.config.FleetConfig` alone, and the compiler
(:mod:`.compiler`) anchors each of its refusals at the key behind it.

Three rule families live here (the compiler adds the per-cell lowering
refusals, the lint pack the SCN005 matrix budget):

* **SCN001** -- schema violations: unknown keys and sections, wrong
  scalar types, missing required fields, malformed style, roster, plan,
  kill and budget entries, roster/count mismatch.
* **SCN002** -- unit errors: a key whose quantity stem matches a known
  field but whose unit suffix disagrees in dimension or scale
  (``barrier_ms`` for ``barrier_s``, ``v2v_latency_bytes``), resolved
  through the unit vocabulary of :mod:`.units`.
* **SCN003** -- dangling cross-references: undefined workload styles,
  duplicate roster ids, a plan pinned under a swept fleet size, fault
  kills aimed at partitions or rounds no matrix cell ever runs.

:func:`check` walks a document once.  It reports every issue and
records, in one :class:`Accepted` record, each entry it reported
nothing against (a reference to a rejected style is rejected with it).
The lowering and the SCN005 budget check read only that record, so an
entry the schema rejected yields exactly one finding: the schema's.
Field names double as :class:`~repro.fleet.config.FleetConfig` keyword
names, and defaults are read off the dataclass itself, so schema and
runtime can never drift apart.
"""

from __future__ import annotations

import itertools
from dataclasses import MISSING, dataclass, field, fields as dataclass_fields
from typing import Optional

from ..faults.prockill import KillPhase, KillPlan, WorkerKill
from ..fleet.config import FleetConfig, barrier_count
from ..workloads.styles import STYLES
from .units import Unit, split_name_unit
from .yamlish import MappingNode, ScalarNode, SequenceNode

__all__ = [
    "Accepted",
    "CellSpec",
    "FieldSpec",
    "Issue",
    "Setting",
    "FLEET_FIELDS",
    "LINK_FIELDS",
    "check",
    "config_defaults",
]


@dataclass(frozen=True, order=True)
class Issue:
    """One schema/unit/reference diagnostic, anchored to a source line."""

    line: int
    rule: str
    message: str
    #: The matrix cells that failed to lower; empty for a document issue.
    cells: tuple[str, ...] = field(default=(), compare=False)


@dataclass(frozen=True)
class FieldSpec:
    """One scalar field's static contract."""

    name: str
    kind: str  # "int" | "float" | "bool" | "str"
    required: bool = False
    positive: bool = False
    nonnegative: bool = False
    choices: tuple[str, ...] = ()

    @property
    def unit(self) -> Optional[Unit]:
        """The unit the field's own suffix declares, if any."""
        return split_name_unit(self.name)[1]


def _table(*specs: FieldSpec) -> dict[str, FieldSpec]:
    return {spec.name: spec for spec in specs}


#: ``fleet:`` section -- geometry and cadence.  Names are FleetConfig
#: keyword names verbatim.
FLEET_FIELDS: dict[str, FieldSpec] = _table(
    FieldSpec("seed", "int"),
    FieldSpec("vehicles", "int"),
    FieldSpec("partitions", "int"),
    FieldSpec("duration_s", "float"),
    FieldSpec("tick_s", "float"),
    FieldSpec("barrier_s", "float"),
    FieldSpec("barrier_deadline_s", "float"),
    FieldSpec("workload", "str"),
    FieldSpec("edge_count", "int"),
    FieldSpec("edge_spacing_m", "float"),
)

#: ``links:`` section -- V2V/cellular link parameters.
LINK_FIELDS: dict[str, FieldSpec] = _table(
    FieldSpec("v2v_latency_s", "float"),
    FieldSpec("beacon_period_s", "float"),
)

#: Every key a ``sweep:`` axis may name (fleet + links, one namespace).
_FLAT_FIELDS: dict[str, FieldSpec] = {**FLEET_FIELDS, **LINK_FIELDS}

_STYLE_FIELDS: dict[str, FieldSpec] = _table(
    FieldSpec("services", "int", required=True, nonnegative=True),
)

_VEHICLE_FIELDS: dict[str, FieldSpec] = _table(
    FieldSpec("id", "int", required=True, nonnegative=True),
    FieldSpec("style", "str"),
    FieldSpec("services", "int", nonnegative=True),
)

_KILL_FIELDS: dict[str, FieldSpec] = _table(
    FieldSpec("partition", "int", required=True, nonnegative=True),
    FieldSpec("round", "int", required=True, nonnegative=True),
    FieldSpec("phase", "str", choices=KillPhase.ALL),
)

#: Any integer (plan shard ids, roster ids and kill targets before their
#: sign check).
_INT = FieldSpec("value", "int")

_BUDGET_FIELDS: dict[str, FieldSpec] = _table(
    FieldSpec("cost", "float", positive=True),
    FieldSpec("cells", "int", positive=True),
)

_TOP_SECTIONS: tuple[str, ...] = (
    "name", "description", "fleet", "links", "styles", "vehicles",
    "faults", "plan", "sweep", "budget",
)


def config_defaults() -> dict[str, object]:
    """FleetConfig's own field defaults (schema never restates them)."""
    out: dict[str, object] = {}
    for config_field in dataclass_fields(FleetConfig):
        if config_field.default is not MISSING:
            out[config_field.name] = config_field.default
    return out


@dataclass(frozen=True)
class Setting:
    """One resolved scalar setting and where it was written."""

    key: str
    value: object
    line: int


@dataclass(frozen=True)
class CellSpec:
    """One matrix cell: merged settings plus the axis values that made it."""

    name: str
    overrides: tuple[tuple[str, object], ...]


@dataclass
class Accepted:
    """Every entry :func:`check` reported nothing against: all that the
    lowering and the budget check read of a document."""

    #: ``name:`` and ``description:``.
    meta: dict[str, str] = field(default_factory=dict)
    #: ``fleet:`` and ``links:`` settings, by key.
    base: dict[str, Setting] = field(default_factory=dict)
    #: ``sweep:`` axes, by key; each keeps every value it lists.
    axes: dict[str, list[Setting]] = field(default_factory=dict)
    #: Custom ``styles:``, as ``{style id: services}``.
    styles: dict[str, int] = field(default_factory=dict)
    #: How many entries the ``vehicles:`` roster lists (0: no roster).
    roster_size: int = 0
    #: Roster entries by vehicle id, as ``{field: value}``.
    roster: dict[int, dict[str, object]] = field(default_factory=dict)
    #: ``faults.kills`` as one plan (``None``: no kill).
    kill_plan: Optional[KillPlan] = None
    #: ``plan.shards``, at the line of its key.
    plan: Optional[Setting] = None
    #: ``budget:`` fields, by key.
    budget: dict[str, Setting] = field(default_factory=dict)

    def cells(self) -> list[CellSpec]:
        """Deterministic matrix expansion: axes sorted by key, values in
        document order, cartesian product in row-major order."""
        if not self.axes:
            return [CellSpec("base", ())]
        axes = [self.axes[key] for key in sorted(self.axes)]
        cells: list[CellSpec] = []
        for combo in itertools.product(*axes):
            overrides = tuple((axis.key, axis.value) for axis in combo)
            name = "/".join(f"{key}={value}" for key, value in overrides)
            cells.append(CellSpec(name, overrides))
        return cells

    def values(self, cell: CellSpec) -> dict[str, object]:
        """One cell's FleetConfig keywords: the dataclass defaults, then
        the base settings, then the cell's axis values.  A roster's
        length, not ``vehicles``, sizes the fleet."""
        values = config_defaults()
        values.update((key, base.value) for key, base in self.base.items())
        values.update(cell.overrides)
        if self.roster_size:
            values["vehicles"] = self.roster_size
        return values


def _scalar_problem(node, spec: FieldSpec) -> Optional[str]:
    """Why ``node`` is not a valid ``spec`` value; ``None`` when it is."""
    if not isinstance(node, ScalarNode):
        return f"must be a {spec.kind} scalar, not a block"
    value = node.value
    if spec.kind == "bool":
        return None if isinstance(value, bool) else (
            f"must be true or false, got {value!r}"
        )
    if spec.kind == "str":
        if not isinstance(value, str):
            return f"must be a string, got {value!r}"
        if spec.choices and value not in spec.choices:
            return f"must be one of {', '.join(spec.choices)}; got {value!r}"
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return f"must be a number, got {value!r}"
    if spec.kind == "int" and not isinstance(value, int):
        return f"must be an integer, got {value!r}"
    if spec.positive and value <= 0:
        return f"must be positive, got {value!r}"
    if spec.nonnegative and value < 0:
        return f"must be non-negative, got {value!r}"
    return None


class _Walk:
    """One pass over a document.  An entry is accepted when the walk
    reported nothing while checking it (``reported`` did not move)."""

    def __init__(self, doc: MappingNode):
        self.doc = doc
        self.issues: set[Issue] = set()
        self.reported = 0
        self.accepted = Accepted()
        self.declared_styles = set(STYLES)
        self.swept: set[str] = set()

    def report(self, rule: str, line: int, message: str) -> None:
        self.reported += 1
        self.issues.add(Issue(line=line, rule=rule, message=message))

    # -- generic field machinery ------------------------------------------

    def unknown_key(self, key: str, line: int,
                    table: dict[str, FieldSpec], where: str) -> None:
        """SCN002 when the stem matches a known quantity field with a
        conflicting unit suffix; SCN001 otherwise."""
        key_stem, key_unit = split_name_unit(key)
        if key_unit is not None:
            for spec in table.values():
                field_unit = spec.unit
                if field_unit is None:
                    continue
                field_stem, _ = split_name_unit(spec.name)
                if field_stem != key_stem:
                    continue
                if not key_unit.same_dimension(field_unit):
                    self.report(
                        "SCN002", line,
                        f"`{key}` is {key_unit.render()} but {where} "
                        f"expects `{spec.name}` ({field_unit.render()}); "
                        "fix the suffix and convert the value",
                    )
                    return
                if not key_unit.same_scale(field_unit):
                    self.report(
                        "SCN002", line,
                        f"`{key}` is scaled {key_unit.render()} but "
                        f"{where} expects `{spec.name}` "
                        f"({field_unit.render()}); convert the value",
                    )
                    return
                self.report(
                    "SCN001", line,
                    f"unknown key `{key}` in {where}; did you mean "
                    f"`{spec.name}`?",
                )
                return
        known = ", ".join(sorted(table))
        self.report(
            "SCN001", line,
            f"unknown key `{key}` in {where} (known keys: {known})",
        )

    def scalar(self, node, spec: FieldSpec, line: int, where: str) -> bool:
        """Report ``node`` unless it is a valid ``spec`` value."""
        problem = _scalar_problem(node, spec)
        if problem is not None:
            self.report(
                "SCN001", getattr(node, "line", line),
                f"`{spec.name}` in {where} {problem}",
            )
        return problem is None

    def fields(self, mapping: MappingNode, table: dict[str, FieldSpec],
               where: str) -> dict[str, Setting]:
        """Check a mapping against a field table; its valid settings."""
        out: dict[str, Setting] = {}
        for key, node in mapping.items():
            spec = table.get(key)
            if spec is None:
                self.unknown_key(key, mapping.key_line(key), table, where)
            elif self.scalar(node, spec, mapping.key_line(key), where):
                out[key] = Setting(key, node.value, node.line)
        for spec in table.values():
            if spec.required and spec.name not in mapping:
                self.report(
                    "SCN001", mapping.line,
                    f"{where} is missing the required field `{spec.name}`",
                )
        return out

    def mapping(self, key: str) -> Optional[MappingNode]:
        node = self.doc.get(key)
        if node is None:
            return None
        if not isinstance(node, MappingNode):
            self.report(
                "SCN001", self.doc.key_line(key),
                f"`{key}:` must be a mapping block",
            )
            return None
        return node

    def style_ref(self, setting: Setting) -> bool:
        """Report a reference to an undeclared style; True when it names
        a built-in or accepted style."""
        if setting.value not in self.declared_styles:
            self.report(
                "SCN003", setting.line,
                f"undefined workload style `{setting.value}` "
                f"(known: {', '.join(sorted(self.declared_styles))})",
            )
        return setting.value in STYLES or setting.value in self.accepted.styles

    # -- sections, in the order their readers need -------------------------

    def run(self) -> None:
        for key in self.doc.keys():
            if key not in _TOP_SECTIONS:
                self.report(
                    "SCN001", self.doc.key_line(key),
                    f"unknown top-level section `{key}` (known: "
                    f"{', '.join(_TOP_SECTIONS)})",
                )
        for meta in ("name", "description"):
            node = self.doc.get(meta)
            if node is None:
                continue
            if isinstance(node, ScalarNode) and isinstance(node.value, str):
                self.accepted.meta[meta] = node.value
            else:
                self.report(
                    "SCN001", self.doc.key_line(meta),
                    f"`{meta}` must be a string",
                )
        if "fleet" not in self.doc:
            self.report(
                "SCN001", self.doc.line,
                "scenario is missing the required `fleet:` section",
            )
        self.check_styles()
        for name, table in (("fleet", FLEET_FIELDS), ("links", LINK_FIELDS)):
            section = self.mapping(name)
            if section is not None:
                settings = self.fields(section, table, name)
                workload = settings.get("workload")
                if workload is not None and not self.style_ref(workload):
                    del settings["workload"]
                self.accepted.base.update(settings)
        self.check_roster()
        self.check_sweep()
        self.check_plan()
        self.check_faults()
        self.check_budget()

    def check_styles(self) -> None:
        styles = self.mapping("styles")
        if styles is None:
            return
        self.declared_styles.update(styles.keys())
        for style_id, node in styles.items():
            line = styles.key_line(style_id)
            before = self.reported
            if style_id in STYLES:
                self.report(
                    "SCN001", line,
                    f"style `{style_id}` redefines a built-in style",
                )
            if not isinstance(node, MappingNode):
                self.report(
                    "SCN001", line,
                    f"style `{style_id}` must be a mapping of style fields",
                )
                continue
            settings = self.fields(node, _STYLE_FIELDS, f"style `{style_id}`")
            if self.reported == before:
                self.accepted.styles[style_id] = settings["services"].value

    def check_roster(self) -> None:
        roster = self.doc.get("vehicles")
        if roster is None:
            return
        if not isinstance(roster, SequenceNode):
            self.report(
                "SCN001", self.doc.key_line("vehicles"),
                "`vehicles:` must be a sequence of vehicle entries",
            )
            return
        count = self.accepted.roster_size = len(roster.items)
        seen_ids: dict[int, int] = {}
        for item in roster.items:
            if not isinstance(item, MappingNode):
                self.report(
                    "SCN001", getattr(item, "line", roster.line),
                    "each vehicle entry must be a mapping with an `id`",
                )
                continue
            before = self.reported
            settings = self.fields(item, _VEHICLE_FIELDS, "vehicle entry")
            if "style" in item and "services" in item:
                self.report(
                    "SCN001", item.key_line("services"),
                    "vehicle entry sets both `style` and `services`; "
                    "pick one",
                )
            style = settings.get("style")
            names_style = style is None or self.style_ref(style)
            id_node = item.get("id")
            if _scalar_problem(id_node, _INT) is None:
                vehicle_id = id_node.value
                if vehicle_id in seen_ids:
                    self.report(
                        "SCN003", id_node.line,
                        f"duplicate vehicle id {vehicle_id} (first "
                        f"defined on line {seen_ids[vehicle_id]})",
                    )
                else:
                    seen_ids[vehicle_id] = id_node.line
            if self.reported == before and names_style \
                    and settings["id"].value < count:
                self.accepted.roster[settings["id"].value] = {
                    key: setting.value for key, setting in settings.items()
                }
        stray = sorted(set(seen_ids) - set(range(count)))
        if stray:
            self.report(
                "SCN003", roster.line,
                f"roster ids must cover 0..{count - 1}; "
                f"{stray} are out of range",
            )
        declared = self.accepted.base.get("vehicles")
        if declared is not None and declared.value != count:
            self.report(
                "SCN001", declared.line,
                f"fleet.vehicles={declared.value} but the roster "
                f"lists {count} vehicles",
            )

    def check_sweep(self) -> None:
        sweep = self.mapping("sweep")
        if sweep is None:
            return
        self.swept.update(sweep.keys())
        for key, node in sweep.items():
            line = sweep.key_line(key)
            spec = _FLAT_FIELDS.get(key)
            if spec is None:
                self.unknown_key(key, line, _FLAT_FIELDS, "sweep")
                continue
            before = self.reported
            if key == "vehicles" and self.accepted.roster_size:
                self.report(
                    "SCN001", line,
                    "`vehicles` cannot be swept when a vehicle roster "
                    "pins the fleet size",
                )
            if not isinstance(node, SequenceNode):
                self.report(
                    "SCN001", line,
                    f"sweep axis `{key}` must be a sequence of values",
                )
                continue
            if not node.items:
                self.report(
                    "SCN001", line,
                    f"sweep axis `{key}` is empty",
                )
            values = [
                Setting(key, item.value, item.line) for item in node.items
                if self.scalar(item, spec, line, f"sweep axis `{key}`")
            ]
            if key == "workload":
                values = [value for value in values if self.style_ref(value)]
            if self.reported == before and len(values) == len(node.items):
                self.accepted.axes[key] = values

    def check_plan(self) -> None:
        plan = self.mapping("plan")
        if plan is None:
            return
        for key in plan.keys():
            if key != "shards":
                self.report(
                    "SCN001", plan.key_line(key),
                    f"unknown key `{key}` in plan (known keys: shards)",
                )
        shards_node = plan.get("shards")
        if shards_node is None:
            self.report(
                "SCN001", plan.line,
                "plan is missing the required field `shards`",
            )
            return
        if not isinstance(shards_node, SequenceNode):
            self.report(
                "SCN001", plan.key_line("shards"),
                "`plan.shards` must be a sequence of per-partition "
                "vehicle-id lists",
            )
            return
        shards_line = plan.key_line("shards")
        for blocker in ("partitions", "vehicles"):
            if blocker in self.swept:
                self.report(
                    "SCN003", shards_line,
                    f"plan pins {len(shards_node.items)} shards but "
                    f"`{blocker}` is swept; drop the plan or the axis",
                )
                return
        for shard_node in shards_node.items:
            if not isinstance(shard_node, SequenceNode):
                self.report(
                    "SCN001", getattr(shard_node, "line", shards_line),
                    "each plan shard must be a sequence of vehicle ids",
                )
                return
            for entry in shard_node.items:
                if _scalar_problem(entry, _INT) is not None:
                    self.report(
                        "SCN001", getattr(entry, "line", shard_node.line),
                        "plan shard entries must be integer vehicle ids",
                    )
                    return
        self.accepted.plan = Setting("shards", tuple(
            tuple(entry.value for entry in shard.items)
            for shard in shards_node.items
        ), shards_line)

    def _kill_limits(self) -> tuple[int, Optional[int]]:
        """Most partitions, and most barrier rounds (when statically
        known), that any matrix cell runs."""
        partitions: list[int] = []
        rounds: list[Optional[int]] = []
        for cell in self.accepted.cells():
            values = self.accepted.values(cell)
            partitions.append(values["partitions"])
            step = values["barrier_s"]
            if step is None:
                step = values["v2v_latency_s"]
            duration = values["duration_s"]
            rounds.append(barrier_count(duration, step)
                          if step > 0 and duration > 0 else None)
        return max(partitions), None if None in rounds else max(rounds)

    def check_faults(self) -> None:
        faults = self.mapping("faults")
        if faults is None:
            return
        for key in faults.keys():
            if key != "kills":
                self.report(
                    "SCN001", faults.key_line(key),
                    f"unknown key `{key}` in faults (known keys: kills)",
                )
        kills = faults.get("kills")
        if kills is None:
            return
        if not isinstance(kills, SequenceNode):
            self.report(
                "SCN001", faults.key_line("kills"),
                "`faults.kills` must be a sequence of kill entries",
            )
            return
        max_partitions, max_rounds = self._kill_limits()
        seen: dict[tuple[int, int], int] = {}
        accepted: list[WorkerKill] = []
        for item in kills.items:
            if not isinstance(item, MappingNode):
                self.report(
                    "SCN001", getattr(item, "line", kills.line),
                    "each kill entry must be a mapping with `partition` "
                    "and `round`",
                )
                continue
            before = self.reported
            settings = self.fields(item, _KILL_FIELDS, "kill entry")
            partition_node = item.get("partition")
            round_node = item.get("round")
            if _scalar_problem(partition_node, _INT) is not None \
                    or _scalar_problem(round_node, _INT) is not None:
                continue
            partition, round_index = partition_node.value, round_node.value
            if partition >= max_partitions:
                self.report(
                    "SCN003", partition_node.line,
                    f"kill targets partition {partition} but no matrix "
                    f"cell runs more than {max_partitions} partitions",
                )
            if max_rounds is not None and round_index >= max_rounds:
                self.report(
                    "SCN003", round_node.line,
                    f"kill targets barrier round {round_index} but no "
                    f"matrix cell runs more than {max_rounds} rounds",
                )
            kill_key = (partition, round_index)
            if kill_key in seen:
                self.report(
                    "SCN003", item.line,
                    f"duplicate kill for partition {partition} round "
                    f"{round_index} (first defined on line "
                    f"{seen[kill_key]})",
                )
            else:
                seen[kill_key] = item.line
            if self.reported == before:
                phase = settings.get("phase")
                accepted.append(WorkerKill(
                    partition=partition,
                    barrier_index=round_index,
                    phase=KillPhase.ON_ADVANCE if phase is None
                    else phase.value,
                ))
        if accepted:
            self.accepted.kill_plan = KillPlan(kills=tuple(accepted))

    def check_budget(self) -> None:
        budget = self.mapping("budget")
        if budget is None:
            return
        before = self.reported
        settings = self.fields(budget, _BUDGET_FIELDS, "budget")
        if "cost" not in budget and "cells" not in budget:
            self.report(
                "SCN001", budget.line,
                "budget must declare `cost:` and/or `cells:`",
            )
        if self.reported == before:
            self.accepted.budget = settings


def check(doc: MappingNode) -> tuple[list[Issue], Accepted]:
    """Walk one parsed scenario document once: every SCN001/SCN002/SCN003
    issue in it, sorted, and the :class:`Accepted` record of each entry
    none of them is against."""
    walk = _Walk(doc)
    walk.run()
    return sorted(walk.issues), walk.accepted
