"""Fleet configuration: what a partitioned simulation is made of.

A :class:`FleetConfig` fully determines a fleet run -- vehicle count,
partition count, barrier cadence, V2V link latency, seeds -- so that one
config yields identical per-vehicle event traces whether it runs as a
single in-process simulator or as N coordinated worker processes.  The
conservative-time-sync invariant lives here: the barrier step may never
exceed the cross-partition lookahead (the minimum V2V link latency),
which is what guarantees a message sent in round *k* cannot be due before
round *k+1* starts.

A :class:`PartitionSpec` is the picklable sub-config one worker process
receives: the shared config, its partition index, and its vehicle shard.
Respawned workers get the same spec (minus any armed kill plan), which is
why seed+replay recovery reproduces the original run exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from ..faults.prockill import KillPlan
from ..workloads.styles import STYLES, WorkloadStyle

__all__ = [
    "ConfigError", "FleetConfig", "PartitionPlan", "PartitionSpec",
    "barrier_count", "shard_vehicles",
]


class ConfigError(ValueError):
    """A refused :class:`FleetConfig`, naming the field behind each refusal.

    ``problems`` holds one ``(field, message)`` pair per refusal;
    ``str()`` joins the messages with ``"; "``.
    """

    def __init__(self, problems: Sequence[tuple[str, str]]):
        self.problems = tuple(problems)
        super().__init__("; ".join(message for _field, message in self.problems))


def barrier_count(duration_s: float, step_s: float) -> int:
    """Barrier rounds a run of ``duration_s`` takes at step ``step_s``."""
    return max(1, math.ceil(duration_s / step_s - 1e-9))


def shard_vehicles(
    vehicles: int, partitions: int,
    costs: Optional[Sequence[float]] = None,
) -> list[tuple[int, ...]]:
    """Assign vehicle indices to partitions.

    Without ``costs``: stable round-robin (the PR-6 default).  With
    ``costs`` (one non-negative weight per vehicle): greedy LPT --
    vehicles in descending cost order, each onto the currently lightest
    partition, ties broken by lowest index on both sides -- which is
    deterministic and within 4/3 of the optimal makespan.  Cost-balanced
    shards may be uneven, including empty (a planner may leave a
    partition idle rather than split a heavy vehicle's neighbours).
    """
    if vehicles < 1:
        raise ValueError(f"need at least one vehicle, got {vehicles}")
    if not 1 <= partitions <= vehicles:
        raise ValueError(
            f"partitions must be in [1, {vehicles}], got {partitions}"
        )
    if costs is None:
        return [
            tuple(v for v in range(vehicles) if v % partitions == p)
            for p in range(partitions)
        ]
    if len(costs) != vehicles:
        raise ValueError(
            f"need one cost per vehicle: got {len(costs)} for {vehicles}"
        )
    if any(c < 0 for c in costs):
        raise ValueError("vehicle costs must be non-negative")
    shards: list[list[int]] = [[] for _ in range(partitions)]
    loads = [0.0] * partitions
    for vehicle in sorted(range(vehicles), key=lambda v: (-costs[v], v)):
        target = min(range(partitions), key=lambda p: (loads[p], p))
        shards[target].append(vehicle)
        loads[target] += costs[vehicle]
    return [tuple(sorted(shard)) for shard in shards]


@dataclass(frozen=True)
class PartitionPlan:
    """A cost-balanced shard assignment, as emitted by
    :func:`repro.fleet.plan.plan_for_config`.

    The JSON document the planner writes and :class:`FleetConfig`
    consumes.  ``shards`` is the contract: every vehicle exactly once,
    one (possibly empty) shard per partition.  The remaining fields are
    provenance -- the costs the partitioner balanced, the lookahead and
    barrier step of the config it planned, the workload the costs
    assumed -- so an executed plan can be audited against the config it
    runs under.  :meth:`from_dict` rejects malformed documents with a
    ``ValueError`` naming the offending field.
    """

    vehicles: int
    partitions: int
    shards: tuple[tuple[int, ...], ...]
    costs: tuple[float, ...] = ()
    method: str = "greedy-lpt"
    seed: int = 0
    workload: str = "uniform"
    lookahead_s: float | None = None
    barrier_s: float | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "shards", tuple(tuple(shard) for shard in self.shards)
        )
        object.__setattr__(self, "costs", tuple(self.costs))
        validate_shards(self.shards, self.vehicles, self.partitions)
        if self.costs and len(self.costs) != self.vehicles:
            raise ValueError(
                f"plan carries {len(self.costs)} costs for "
                f"{self.vehicles} vehicles"
            )

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "method": self.method,
            "seed": self.seed,
            "vehicles": self.vehicles,
            "partitions": self.partitions,
            "workload": self.workload,
            "lookahead_s": self.lookahead_s,
            "barrier_s": self.barrier_s,
            "costs": list(self.costs),
            "shards": [list(shard) for shard in self.shards],
        }

    def dumps(self) -> str:
        """Stable JSON text (sorted keys, trailing newline)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, document: object) -> "PartitionPlan":
        """Build a plan from its JSON document.

        Raises ``ValueError`` naming the field for anything a plan file
        cannot be: a non-object document, a version other than 1,
        missing or non-integer ``vehicles``/``partitions``/shard ids,
        or non-numeric costs.
        """
        if not isinstance(document, dict):
            raise ValueError(
                "plan document must be a JSON object, got "
                f"{type(document).__name__}"
            )
        version = document.get("version")
        if type(version) is not int or version != 1:
            raise ValueError(f"plan field 'version' must be 1, got {version!r}")
        shards = document.get("shards")
        if not isinstance(shards, list) or not all(
            isinstance(shard, list) for shard in shards
        ):
            raise ValueError(
                "plan field 'shards' must be a list of vehicle-id lists, "
                f"got {shards!r}"
            )
        costs = document.get("costs", [])
        if not isinstance(costs, list) or not all(
            isinstance(cost, (int, float)) and not isinstance(cost, bool)
            for cost in costs
        ):
            raise ValueError(
                f"plan field 'costs' must be a list of numbers, got {costs!r}"
            )
        return cls(
            vehicles=_plan_int(document.get("vehicles"), "vehicles"),
            partitions=_plan_int(document.get("partitions"), "partitions"),
            shards=tuple(
                tuple(_plan_int(v, "shards") for v in shard)
                for shard in shards
            ),
            costs=tuple(costs),
            method=document.get("method", "greedy-lpt"),
            seed=document.get("seed", 0),
            workload=document.get("workload", "uniform"),
            lookahead_s=document.get("lookahead_s"),
            barrier_s=document.get("barrier_s"),
        )

    @classmethod
    def load(cls, path: str) -> "PartitionPlan":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())

    def shards_for(self, config: "FleetConfig") -> tuple[tuple[int, ...], ...]:
        """This plan's shards, after checking it matches ``config``."""
        for name in ("vehicles", "partitions", "workload"):
            mine, theirs = getattr(self, name), getattr(config, name)
            if mine != theirs:
                raise ValueError(
                    f"plan was emitted for {name}={mine!r} but the config "
                    f"has {name}={theirs!r}"
                )
        return self.shards


def _plan_int(value: object, name: str) -> int:
    """A plan document's integer field (``bool`` is not an integer here)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"plan field {name!r} must be an integer, got {value!r}")
    return value


def validate_shards(shards: Sequence[Sequence[int]], vehicles: int,
                    partitions: int) -> None:
    """Shard-assignment contract: every vehicle exactly once; empty OK.

    Violations name the offending vehicle ids (unknown, duplicated, or
    unassigned) so a mis-sharded plan fails loudly at load time instead
    of silently dropping or double-running vehicles.  One ``ValueError``
    carries every violation, joined with ``"; "``.
    """
    problems = []
    if len(shards) != partitions:
        problems.append(
            f"plan has {len(shards)} shards for {partitions} partitions"
        )
    assigned = [v for shard in shards for v in shard]
    unknown = sorted({v for v in assigned if not 0 <= v < vehicles})
    if unknown:
        problems.append(
            f"plan names unknown vehicle ids {unknown} "
            f"(valid ids are 0..{vehicles - 1})"
        )
    seen: set[int] = set()
    duplicates: set[int] = set()
    for vehicle in assigned:
        (duplicates if vehicle in seen else seen).add(vehicle)
    if duplicates:
        problems.append(
            f"plan assigns vehicle ids {sorted(duplicates)} to more than "
            "one shard"
        )
    missing = sorted(set(range(vehicles)) - seen)
    # An unknown id is usually a typo for a missing one: report it alone.
    if missing and not unknown:
        problems.append(
            f"plan leaves vehicle ids {missing} unassigned "
            f"(every one of the {vehicles} vehicles needs a shard)"
        )
    if not duplicates and any(
        list(shard) != sorted(shard) for shard in shards
    ):
        problems.append("each shard must list vehicles sorted, once")
    if problems:
        raise ValueError("; ".join(problems))


#: FleetConfig's float fields, each finite and positive (``barrier_s``
#: may be None), with the words a refusal names them by.
_FLOAT_FIELDS = {
    "duration_s": "duration", "tick_s": "tick",
    "v2v_latency_s": "v2v latency", "barrier_s": "barrier step",
    "beacon_period_s": "beacon period", "edge_spacing_m": "edge spacing",
    "barrier_deadline_s": "barrier deadline",
}


@dataclass(frozen=True)
class FleetConfig:
    """Everything that defines one fleet run (picklable, seed-stamped).

    ``barrier_s`` defaults to the lookahead (``v2v_latency_s``) -- the
    largest step conservative sync allows.  ``barrier_deadline_s`` is a
    **wall-clock** budget per barrier: a worker that misses it is a
    straggler (retried once with backoff), then failed over.

    This class is the only judge of a fleet's values: construction
    raises one :class:`ConfigError` listing every refusal under its
    field, which is how a scenario finding lands on the key behind it.
    """

    seed: int = 0
    vehicles: int = 4
    partitions: int = 2
    duration_s: float = 12.0
    tick_s: float = 1.0
    v2v_latency_s: float = 1.0
    barrier_s: float | None = None
    beacon_period_s: float = 2.0
    edge_count: int = 2
    edge_spacing_m: float = 450.0
    barrier_deadline_s: float = 60.0
    kill_plan: KillPlan | None = None
    straggle_s: tuple[tuple[tuple[int, int], float], ...] = field(
        default_factory=tuple
    )
    workload: str = "uniform"
    #: Explicit shard assignment (e.g. from a :class:`PartitionPlan`);
    #: ``None`` falls back to round-robin.
    plan: tuple[tuple[int, ...], ...] | None = None
    #: Explicit workload style object (scenario-compiled rosters carry
    #: per-vehicle service tables here); ``None`` looks ``workload`` up
    #: in the shipped ``STYLES`` registry.
    style_spec: WorkloadStyle | None = None

    def __post_init__(self):
        if self.plan is not None:
            object.__setattr__(
                self, "plan", tuple(tuple(shard) for shard in self.plan)
            )
        problems: list[tuple[str, str]] = []
        if self.vehicles < 1:
            problems.append(
                ("vehicles", f"need at least one vehicle, got {self.vehicles}")
            )
        elif not 1 <= self.partitions <= self.vehicles:
            problems.append((
                "partitions",
                f"partitions must be in [1, {self.vehicles}], "
                f"got {self.partitions}",
            ))
        for name, words in _FLOAT_FIELDS.items():
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                problems.append((name, f"{name} must be finite, got {value}"))
            elif value is not None and value <= 0:
                problems.append((name, f"{words} must be positive, got {value}"))
        if self.edge_count < 1:
            problems.append(
                ("edge_count", f"need at least one edge node, got {self.edge_count}")
            )
        if self.style_spec is None and self.workload not in STYLES:
            problems.append(("workload", (
                f"unknown workload style {self.workload!r} "
                f"(have: {', '.join(sorted(STYLES))})"
            )))
        # The plan and conservative sync read fields checked above; a
        # refused input would only restate its own problem.
        refused = {name for name, _message in problems}
        if self.plan is not None and not refused & {"vehicles", "partitions"}:
            try:
                validate_shards(self.plan, self.vehicles, self.partitions)
            except ValueError as exc:
                problems.append(("plan", str(exc)))
        step = self.barrier_step_s
        if not refused & {"barrier_s", "v2v_latency_s"} \
                and step > self.lookahead_s + 1e-12:
            problems.append(("barrier_s", (
                f"conservative sync violated: barrier step {step} exceeds "
                f"derived lookahead {self.lookahead_s} (min V2V link latency)"
            )))
        if problems:
            raise ConfigError(problems)

    # -- derived geometry --------------------------------------------------

    @property
    def lookahead_s(self) -> float:
        """The cross-partition lookahead this config guarantees."""
        return self.v2v_latency_s

    @property
    def barrier_step_s(self) -> float:
        """The time-sync round length (defaults to the lookahead)."""
        return self.barrier_s if self.barrier_s is not None else self.v2v_latency_s

    def barriers(self) -> list[float]:
        """The barrier times: ``step, 2*step, ..., duration`` (inclusive)."""
        step = self.barrier_step_s
        count = barrier_count(self.duration_s, step)
        times = [step * k for k in range(1, count)]
        times.append(self.duration_s)
        return times

    def shards(self) -> list[tuple[int, ...]]:
        """Vehicle indices per partition (the plan, else round-robin)."""
        if self.plan is not None:
            return list(self.plan)
        return shard_vehicles(self.vehicles, self.partitions)

    # -- per-vehicle derivations -------------------------------------------

    @property
    def style(self) -> WorkloadStyle:
        """The workload style this fleet runs (explicit spec wins)."""
        if self.style_spec is not None:
            return self.style_spec
        return STYLES[self.workload]

    def service_count(self, index: int) -> int:
        """Managed service instances vehicle ``index`` runs (style-driven)."""
        return self.style.service_count(index)

    def vehicle_label(self, index: int) -> str:
        """Stable display/trace name for one vehicle."""
        return f"cav-{index:03d}"

    def vehicle_seed(self, index: int) -> int:
        """Independent per-vehicle seed: ``seed * 1_000_003 + index``."""
        return self.seed * 1_000_003 + index

    def vehicle_speed_mps(self, index: int) -> float:
        """Deterministic per-vehicle cruise speed (staggers the traces).

        Derived from the per-vehicle seed (not the partition layout), so
        it is partition-invariant but does change with ``seed`` -- the
        hook that makes the fleet's event traces seed-sensitive.
        """
        jitter = np.random.default_rng(self.vehicle_seed(index)).uniform()
        return 8.0 + 1.5 * (index % 6) + round(float(jitter), 3)

    def neighbors(self, index: int) -> tuple[int, ...]:
        """Ring-topology V2V neighbours of one vehicle (global indices)."""
        if self.vehicles < 2:
            return ()
        if self.vehicles == 2:
            return (1 - index,)
        return tuple(
            sorted({(index - 1) % self.vehicles, (index + 1) % self.vehicles})
        )

    def spec_for(self, partition: int) -> "PartitionSpec":
        """The spec handed to one worker process."""
        shard = self.shards()[partition]
        kill = (
            self.kill_plan.for_partition(partition)
            if self.kill_plan is not None and len(self.kill_plan.for_partition(partition))
            else None
        )
        return PartitionSpec(
            config=self,
            partition=partition,
            vehicle_indices=shard,
            kill_plan=kill,
            straggle_s=tuple(
                (key, seconds)
                for key, seconds in self.straggle_s
                if key[0] == partition
            ),
        )


@dataclass(frozen=True)
class PartitionSpec:
    """One worker's slice of the fleet (picklable; crosses the process gap).

    ``kill_plan`` and ``straggle_s`` carry only this partition's scheduled
    faults and are *disarmed* on respawn -- the fault already fired once,
    and a recovered worker that re-stalled or re-crashed on the replayed
    round would livelock the failover loop.
    """

    config: FleetConfig
    partition: int
    vehicle_indices: tuple[int, ...]
    kill_plan: KillPlan | None = None
    straggle_s: tuple[tuple[tuple[int, int], float], ...] = ()

    def __post_init__(self):
        # Empty shards are legal (a cost-balanced plan may idle a
        # partition); the shard just has to be canonical.
        if list(self.vehicle_indices) != sorted(set(self.vehicle_indices)):
            raise ValueError("a shard must list vehicles sorted, once")

    def straggle_for(self, round_index: int) -> float:
        """Injected wall-clock stall for one round of this partition."""
        for (_part, rnd), seconds in self.straggle_s:
            if rnd == round_index:
                return seconds
        return 0.0

    def disarmed(self) -> "PartitionSpec":
        """The same spec with every armed fault removed (for respawns)."""
        return replace(self, kill_plan=None, straggle_s=())
