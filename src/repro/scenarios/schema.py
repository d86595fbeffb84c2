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

The lowering reads a document only through the accepted-entry views
below (:func:`base_settings`, :func:`sweep_axes`, :func:`custom_styles`,
:func:`roster_entries`, :func:`kill_entries`, :func:`plan_shards`), so an
entry the schema rejected yields exactly one finding: the schema's.
Field names double as :class:`~repro.fleet.config.FleetConfig` keyword
names, and defaults are read off the dataclass itself, so schema and
runtime can never drift apart.
"""

from __future__ import annotations

import itertools
from dataclasses import MISSING, dataclass, field, fields as dataclass_fields
from typing import Optional

from ..fleet.config import FleetConfig, barrier_count
from ..workloads.styles import STYLES
from .units import Unit, split_name_unit
from .yamlish import MappingNode, ScalarNode, SequenceNode

__all__ = [
    "CellSpec",
    "FieldSpec",
    "Issue",
    "Setting",
    "FLEET_FIELDS",
    "LINK_FIELDS",
    "KILL_PHASES",
    "base_settings",
    "config_defaults",
    "custom_styles",
    "effective_vehicles",
    "expand_cells",
    "kill_entries",
    "plan_shards",
    "roster_entries",
    "sweep_axes",
    "validate",
]

#: Fault phases the scheduler understands (see ``repro.faults.prockill``).
KILL_PHASES: tuple[str, ...] = ("on-advance", "before-ack")


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
    FieldSpec("with_services", "bool"),
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
    FieldSpec("phase", "str", choices=KILL_PHASES),
)

#: Any integer (plan shard ids, kill targets before their sign check).
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

    def __post_init__(self):
        object.__setattr__(self, "overrides", tuple(self.overrides))


# ---------------------------------------------------------------------------
# value extraction (robust against invalid documents)
# ---------------------------------------------------------------------------


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


def _scalar_ok(node, spec: FieldSpec) -> bool:
    """True when ``node`` is a scalar whose value satisfies ``spec``."""
    return _scalar_problem(node, spec) is None


def _entry_ok(node, table: dict[str, FieldSpec]) -> bool:
    """True for a mapping entry the schema accepts: known keys only, each
    well-formed, every required key present."""
    return isinstance(node, MappingNode) and all(
        key in table and _scalar_ok(value, table[key])
        for key, value in node.items()
    ) and all(spec.name in node for spec in table.values() if spec.required)


def custom_styles(doc: MappingNode) -> dict[str, int]:
    """The ``styles:`` entries the schema accepts, as ``{id: services}``."""
    styles = doc.get("styles")
    if not isinstance(styles, MappingNode):
        return {}
    return {
        style_id: node.get("services").value
        for style_id, node in styles.items()
        if style_id not in STYLES and _entry_ok(node, _STYLE_FIELDS)
    }


def _names_style(node, styles: dict[str, int]) -> bool:
    """True when a well-formed style reference names a defined style."""
    return node.value in STYLES or node.value in styles


def base_settings(doc: MappingNode) -> dict[str, Setting]:
    """Well-formed scalar settings from ``fleet:`` + ``links:``.

    Malformed entries, and a ``workload`` naming no defined style, are
    skipped (they already carry their issues); callers get only values
    the compiler could actually use.
    """
    styles = custom_styles(doc)
    out: dict[str, Setting] = {}
    for section_name, table in (("fleet", FLEET_FIELDS), ("links", LINK_FIELDS)):
        section = doc.get(section_name)
        if not isinstance(section, MappingNode):
            continue
        for key, node in section.items():
            spec = table.get(key)
            if spec is not None and _scalar_ok(node, spec) and (
                key != "workload" or _names_style(node, styles)
            ):
                out[key] = Setting(key, node.value, node.line)
    return out


def sweep_axes(doc: MappingNode) -> list[tuple[str, list[Setting]]]:
    """Well-formed sweep axes, sorted by key (the expansion order)."""
    sweep = doc.get("sweep")
    if not isinstance(sweep, MappingNode):
        return []
    styles = custom_styles(doc)
    axes: list[tuple[str, list[Setting]]] = []
    for key in sorted(sweep.keys()):
        spec = _FLAT_FIELDS.get(key)
        node = sweep.get(key)
        if spec is None or not isinstance(node, SequenceNode):
            continue
        values = [
            Setting(key, item.value, item.line)
            for item in node.items
            if _scalar_ok(item, spec)
            and (key != "workload" or _names_style(item, styles))
        ]
        if values and len(values) == len(node.items):
            axes.append((key, values))
    return axes


def expand_cells(doc: MappingNode) -> list[CellSpec]:
    """Deterministic matrix expansion: axes sorted by key, values in
    document order, cartesian product in row-major order."""
    axes = sweep_axes(doc)
    if not axes:
        return [CellSpec("base", ())]
    cells: list[CellSpec] = []
    for combo in itertools.product(*(values for _key, values in axes)):
        overrides = tuple(
            (key, setting.value)
            for (key, _values), setting in zip(axes, combo)
        )
        name = "/".join(f"{key}={value}" for key, value in overrides)
        cells.append(CellSpec(name, overrides))
    return cells


def _cell_value_maps(doc: MappingNode) -> list[dict[str, object]]:
    """Per-cell resolved ``{key: value}`` maps (explicit settings only)."""
    base = {key: setting.value for key, setting in base_settings(doc).items()}
    maps: list[dict[str, object]] = []
    for cell in expand_cells(doc):
        merged = dict(base)
        merged.update(dict(cell.overrides))
        maps.append(merged)
    return maps


def effective_vehicles(doc: MappingNode,
                       values: dict[str, object]) -> Optional[int]:
    """Vehicle count for one cell: roster length wins, else ``vehicles``."""
    roster = doc.get("vehicles")
    if isinstance(roster, SequenceNode) and roster.items:
        return len(roster.items)
    count = values.get("vehicles", config_defaults().get("vehicles"))
    return count if isinstance(count, int) and count >= 1 else None


def roster_entries(doc: MappingNode) -> dict[int, MappingNode]:
    """The roster entries the schema accepts, by vehicle id."""
    roster = doc.get("vehicles")
    if not isinstance(roster, SequenceNode):
        return {}
    styles = custom_styles(doc)
    return {
        item.get("id").value: item for item in roster.items
        if _entry_ok(item, _VEHICLE_FIELDS)
        and not ("style" in item and "services" in item)
        and ("style" not in item or _names_style(item.get("style"), styles))
    }


def kill_entries(doc: MappingNode) -> list[MappingNode]:
    """The ``faults.kills`` entries the schema accepts (a repeated
    partition/round pair keeps its first entry)."""
    faults = doc.get("faults")
    kills = faults.get("kills") if isinstance(faults, MappingNode) else None
    if not isinstance(kills, SequenceNode):
        return []
    accepted: dict[tuple[int, int], MappingNode] = {}
    for item in kills.items:
        if _entry_ok(item, _KILL_FIELDS):
            key = (item.get("partition").value, item.get("round").value)
            accepted.setdefault(key, item)
    return list(accepted.values())


def plan_shards(doc: MappingNode) -> Optional[tuple[tuple[int, ...], ...]]:
    """``plan.shards`` when the schema accepts it: integer vehicle-id
    lists, in a document that sweeps neither fleet size nor partitions."""
    plan = doc.get("plan")
    shards = plan.get("shards") if isinstance(plan, MappingNode) else None
    if not isinstance(shards, SequenceNode) or any(
        _swept(doc, key) for key in ("partitions", "vehicles")
    ):
        return None
    if not all(
        isinstance(shard, SequenceNode)
        and all(_scalar_ok(entry, _INT) for entry in shard.items)
        for shard in shards.items
    ):
        return None
    return tuple(
        tuple(entry.value for entry in shard.items) for shard in shards.items
    )


def _swept(doc: MappingNode, key: str) -> bool:
    sweep = doc.get("sweep")
    return isinstance(sweep, MappingNode) and key in sweep


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


class _Checker:
    def __init__(self, doc: MappingNode):
        self.doc = doc
        self.issues: list[Issue] = []

    def report(self, rule: str, line: int, message: str) -> None:
        issue = Issue(line=line, rule=rule, message=message)
        if issue not in self.issues:
            self.issues.append(issue)

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

    def check_scalar(self, node, spec: FieldSpec, line: int,
                     where: str) -> None:
        problem = _scalar_problem(node, spec)
        if problem is not None:
            self.report(
                "SCN001", getattr(node, "line", line),
                f"`{spec.name}` in {where} {problem}",
            )

    def check_mapping_fields(self, mapping: MappingNode,
                             table: dict[str, FieldSpec],
                             where: str) -> None:
        for key, node in mapping.items():
            spec = table.get(key)
            if spec is None:
                self.unknown_key(key, mapping.key_line(key), table, where)
                continue
            self.check_scalar(node, spec, mapping.key_line(key), where)
        for spec in table.values():
            if spec.required and spec.name not in mapping:
                self.report(
                    "SCN001", mapping.line,
                    f"{where} is missing the required field `{spec.name}`",
                )

    def require_mapping(self, key: str) -> Optional[MappingNode]:
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

    # -- sections ----------------------------------------------------------

    def run(self) -> list[Issue]:
        for key in self.doc.keys():
            if key not in _TOP_SECTIONS:
                self.report(
                    "SCN001", self.doc.key_line(key),
                    f"unknown top-level section `{key}` (known: "
                    f"{', '.join(_TOP_SECTIONS)})",
                )
        for meta in ("name", "description"):
            node = self.doc.get(meta)
            if node is not None and not (
                isinstance(node, ScalarNode) and isinstance(node.value, str)
            ):
                self.report(
                    "SCN001", self.doc.key_line(meta),
                    f"`{meta}` must be a string",
                )
        fleet = self.require_mapping("fleet")
        if "fleet" not in self.doc:
            self.report(
                "SCN001", self.doc.line,
                "scenario is missing the required `fleet:` section",
            )
        if fleet is not None:
            self.check_mapping_fields(fleet, FLEET_FIELDS, "fleet")
        links = self.require_mapping("links")
        if links is not None:
            self.check_mapping_fields(links, LINK_FIELDS, "links")
        self.check_styles()
        self.check_roster()
        self.check_sweep()
        self.check_style_refs()
        self.check_plan()
        self.check_faults()
        self.check_budget()
        return sorted(self.issues)

    def check_styles(self) -> None:
        styles = self.require_mapping("styles")
        if styles is None:
            return
        for style_id, node in styles.items():
            line = styles.key_line(style_id)
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
            self.check_mapping_fields(node, _STYLE_FIELDS,
                                      f"style `{style_id}`")

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
        seen_ids: dict[int, int] = {}
        for item in roster.items:
            if not isinstance(item, MappingNode):
                self.report(
                    "SCN001", getattr(item, "line", roster.line),
                    "each vehicle entry must be a mapping with an `id`",
                )
                continue
            self.check_mapping_fields(item, _VEHICLE_FIELDS, "vehicle entry")
            if "style" in item and "services" in item:
                self.report(
                    "SCN001", item.key_line("services"),
                    "vehicle entry sets both `style` and `services`; "
                    "pick one",
                )
            id_node = item.get("id")
            if isinstance(id_node, ScalarNode) and isinstance(
                id_node.value, int
            ) and not isinstance(id_node.value, bool):
                vehicle_id = id_node.value
                if vehicle_id in seen_ids:
                    self.report(
                        "SCN003", id_node.line,
                        f"duplicate vehicle id {vehicle_id} (first "
                        f"defined on line {seen_ids[vehicle_id]})",
                    )
                else:
                    seen_ids[vehicle_id] = id_node.line
        count = len(roster.items)
        expected = set(range(count))
        stray = sorted(set(seen_ids) - expected)
        if stray:
            self.report(
                "SCN003", roster.line,
                f"roster ids must cover 0..{count - 1}; "
                f"{stray} are out of range",
            )
        fleet = self.doc.get("fleet")
        if isinstance(fleet, MappingNode):
            declared = fleet.get("vehicles")
            if isinstance(declared, ScalarNode) and isinstance(
                declared.value, int
            ) and declared.value != count:
                self.report(
                    "SCN001", declared.line,
                    f"fleet.vehicles={declared.value} but the roster "
                    f"lists {count} vehicles",
                )

    def check_sweep(self) -> None:
        sweep = self.require_mapping("sweep")
        if sweep is None:
            return
        roster = self.doc.get("vehicles")
        has_roster = isinstance(roster, SequenceNode) and bool(roster.items)
        for key, node in sweep.items():
            line = sweep.key_line(key)
            spec = _FLAT_FIELDS.get(key)
            if spec is None:
                self.unknown_key(key, line, _FLAT_FIELDS, "sweep")
                continue
            if key == "vehicles" and has_roster:
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
            for item in node.items:
                self.check_scalar(item, spec, line, f"sweep axis `{key}`")

    def _styles_available(self) -> set[str]:
        available = set(STYLES)
        styles = self.doc.get("styles")
        if isinstance(styles, MappingNode):
            available.update(styles.keys())
        return available

    def check_style_refs(self) -> None:
        available = self._styles_available()

        def check_ref(node) -> None:
            if isinstance(node, ScalarNode) and isinstance(node.value, str):
                if node.value not in available:
                    self.report(
                        "SCN003", node.line,
                        f"undefined workload style `{node.value}` "
                        f"(known: {', '.join(sorted(available))})",
                    )

        fleet = self.doc.get("fleet")
        if isinstance(fleet, MappingNode):
            check_ref(fleet.get("workload"))
        sweep = self.doc.get("sweep")
        if isinstance(sweep, MappingNode):
            axis = sweep.get("workload")
            if isinstance(axis, SequenceNode):
                for item in axis.items:
                    check_ref(item)
        roster = self.doc.get("vehicles")
        if isinstance(roster, SequenceNode):
            for item in roster.items:
                if isinstance(item, MappingNode):
                    check_ref(item.get("style"))

    def check_plan(self) -> None:
        plan = self.require_mapping("plan")
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
            if _swept(self.doc, blocker):
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
                if not _scalar_ok(entry, _INT):
                    self.report(
                        "SCN001", getattr(entry, "line", shard_node.line),
                        "plan shard entries must be integer vehicle ids",
                    )
                    return

    def _max_over_cells(self, key: str) -> Optional[int]:
        values = [
            value for value_map in _cell_value_maps(self.doc)
            for value in [value_map.get(key, config_defaults().get(key))]
            if isinstance(value, int)
        ]
        return max(values) if values else None

    def _max_barrier_rounds(self) -> Optional[int]:
        """Most barrier rounds any cell runs, when statically known."""
        counts: list[int] = []
        for value_map in _cell_value_maps(self.doc):
            duration = value_map.get(
                "duration_s", config_defaults().get("duration_s")
            )
            step = value_map.get("barrier_s")
            if step is None:
                step = value_map.get("v2v_latency_s")
            if step is None:
                step = config_defaults().get("v2v_latency_s")
            if step <= 0 or duration <= 0:
                return None
            counts.append(barrier_count(duration, step))
        return max(counts) if counts else None

    def check_faults(self) -> None:
        faults = self.require_mapping("faults")
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
        max_partitions = self._max_over_cells("partitions")
        max_rounds = self._max_barrier_rounds()
        seen: dict[tuple[int, int], int] = {}
        for item in kills.items:
            if not isinstance(item, MappingNode):
                self.report(
                    "SCN001", getattr(item, "line", kills.line),
                    "each kill entry must be a mapping with `partition` "
                    "and `round`",
                )
                continue
            self.check_mapping_fields(item, _KILL_FIELDS, "kill entry")
            partition_node = item.get("partition")
            round_node = item.get("round")
            if not (_scalar_ok(partition_node, _INT)
                    and _scalar_ok(round_node, _INT)):
                continue
            partition, round_index = partition_node.value, round_node.value
            if max_partitions is not None and partition >= max_partitions:
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

    def check_budget(self) -> None:
        budget = self.require_mapping("budget")
        if budget is None:
            return
        self.check_mapping_fields(budget, _BUDGET_FIELDS, "budget")
        if "cost" not in budget and "cells" not in budget:
            self.report(
                "SCN001", budget.line,
                "budget must declare `cost:` and/or `cells:`",
            )


def validate(doc: MappingNode) -> list[Issue]:
    """All SCN001/SCN002/SCN003 issues in one parsed scenario document."""
    return _Checker(doc).run()
