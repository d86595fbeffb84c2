"""Placement plans and their end-to-end cost evaluation.

A placement maps each task of a graph to a tier (vehicle / edge / cloud).
Evaluation computes, against a :class:`repro.topology.World`:

* **end-to-end latency** -- critical path through the DAG, where node cost
  is execution time on the tier's best-fit processor and edge cost is the
  transfer time of the producer's output across the inter-tier link
  (source data starts on the vehicle; final results must return to it);
* **uplink bytes** -- everything leaving the vehicle (the "limited
  bandwidth consumption" the paper's strategy minimizes);
* **vehicle energy** -- joules burned by on-board processors (the SIII-B
  power argument).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hw.energy import EnergyMeter
from ..topology.nodes import LinkTable, Node, Tier
from ..topology.world import World
from .task import TaskGraph

__all__ = [
    "CompiledPlacement",
    "Placement",
    "PlacementEvaluation",
    "evaluate_placement",
    "processor_set",
]


@dataclass(frozen=True)
class Placement:
    """An assignment of every task in a graph to a tier."""

    assignment: dict[str, str]

    def tier_of(self, task_name: str) -> str:
        return self.assignment[task_name]

    @classmethod
    def uniform(cls, graph: TaskGraph, tier: str) -> "Placement":
        return cls({name: tier for name in graph.task_names})

    def validate(self, graph: TaskGraph) -> None:
        missing = set(graph.task_names) - set(self.assignment)
        if missing:
            raise ValueError(f"placement missing tasks: {sorted(missing)}")
        bad = {t for t in self.assignment.values() if t not in Tier.ALL}
        if bad:
            raise ValueError(f"unknown tiers in placement: {sorted(bad)}")


@dataclass(frozen=True)
class PlacementEvaluation:
    """Cost vector of one placement."""

    latency_s: float
    uplink_bytes: float
    vehicle_energy_j: float
    feasible: bool
    infeasible_reason: str = ""


def evaluate_placement(
    graph: TaskGraph, placement: Placement, world: World
) -> PlacementEvaluation:
    """Critical-path latency plus bandwidth/energy accounting.

    A one-shot :class:`CompiledPlacement`: there is one cost model, and
    callers that evaluate a placement repeatedly keep the compiled plan.
    """
    return CompiledPlacement(graph, placement, world).evaluate(world.links)


# -- compiled evaluation ----------------------------------------------------

#: Transfer-op kinds a compiled plan replays at evaluation time.
_OP_ZERO = 0       # same tier: no transfer
_OP_LATENCY = 1    # zero bytes across a link: propagation delay only
_OP_TRANSFER = 2   # bytes across a link: read live link state


class CompiledPlacement:
    """A pre-resolved evaluation plan for one (graph, placement, world).

    The placement cost model (see the module docstring).  Compilation
    performs every lookup that does not move between control ticks --
    topological order, tier assignment, best-fit processor selection,
    link-table resolution, constant execution times, the uplink-byte
    total and the vehicle energy sum -- and leaves :meth:`evaluate` to
    read only the live bandwidth/latency state of the link table it is
    handed.  These floats feed deadline-miss counts and per-vehicle trace
    hashes, where "close" is not equal, so the order of the arithmetic is
    part of the contract.

    A plan reads nothing of ``world`` after compilation but the processor
    sets of the nodes its tiers resolve to, so one plan serves every world
    whose resolved nodes hold equal processors (:func:`processor_set`).
    """

    def __init__(self, graph: TaskGraph, placement: Placement, world: World):
        placement.validate(graph)
        self._infeasible: PlacementEvaluation | None = None
        #: Per task, in topo order: (source_op, ((pred_index, op), ...),
        #: exec_time).  An op is (kind, link, nbytes).
        self._steps: list[tuple] = []
        self._sinks: list[tuple] = []
        self.uplink_bytes = 0.0
        self.vehicle_energy_j = 0.0

        index = {name: i for i, name in enumerate(graph.task_names)}
        meter = EnergyMeter()
        for name in graph.task_names:
            task = graph.task(name)
            tier = placement.tier_of(name)
            node = world.node_for_tier(tier)
            processor = node.best_processor_for(task.workload)
            if processor is None:
                # Compile-time only: built at most once per cached plan.
                self._infeasible = PlacementEvaluation(
                    latency_s=float("inf"),
                    uplink_bytes=0.0,
                    vehicle_energy_j=0.0,
                    feasible=False,
                    infeasible_reason=f"{tier} has no processor for {task.workload.value}",
                )
                return
            source_op = None
            if task.source_bytes:
                source_op = self._compile_op(
                    world, Tier.VEHICLE, tier, task.source_bytes
                )
                if tier != Tier.VEHICLE:
                    self.uplink_bytes += task.source_bytes
            pred_ops = []
            for pred in graph.predecessors(name):
                pred_tier = placement.tier_of(pred)
                nbytes = graph.task(pred).output_bytes
                pred_ops.append(
                    (index[pred], self._compile_op(world, pred_tier, tier, nbytes))
                )
                if pred_tier == Tier.VEHICLE and tier != Tier.VEHICLE:
                    self.uplink_bytes += nbytes
            exec_time = processor.execution_time(task.work_gop, task.workload)
            # Compile-time only: one tuple per task, once per cached plan.
            self._steps.append((source_op, tuple(pred_ops), exec_time))
            if tier == Tier.VEHICLE:
                meter.record_busy(processor, exec_time)
        for sink in graph.sinks:
            self._sinks.append(
                (
                    index[sink],
                    self._compile_op(
                        world,
                        placement.tier_of(sink),
                        Tier.VEHICLE,
                        graph.task(sink).output_bytes,
                    ),
                )
            )
        self.vehicle_energy_j = meter.busy_joules()

    #: LinkTable attribute per cross-tier pair (resolved per evaluation:
    #: callers may replace a link object wholesale, e.g. with an estimate).
    _LINK_ATTR = {
        frozenset((Tier.VEHICLE, Tier.EDGE)): "vehicle_edge",
        frozenset((Tier.VEHICLE, Tier.CLOUD)): "vehicle_cloud",
        frozenset((Tier.EDGE, Tier.CLOUD)): "edge_cloud",
    }

    @classmethod
    def _compile_op(cls, world: World, src_tier: str, dst_tier: str, nbytes: float):
        if src_tier == dst_tier:
            return (_OP_ZERO, None, 0.0)
        # Validates the link exists now; evaluation re-reads it by name.
        world.links.between(src_tier, dst_tier)
        attr = cls._LINK_ATTR[frozenset((src_tier, dst_tier))]
        if nbytes == 0.0:
            return (_OP_LATENCY, attr, 0.0)
        return (_OP_TRANSFER, attr, nbytes)

    def evaluate(self, links: LinkTable) -> PlacementEvaluation:
        """Cost under the *current* state of ``links`` (see class docstring)."""
        if self._infeasible is not None:
            return self._infeasible
        finish = [0.0] * len(self._steps)
        for i, (source_op, pred_ops, exec_time) in enumerate(self._steps):
            ready = 0.0
            if source_op is not None:
                kind, attr, nbytes = source_op
                if kind == _OP_TRANSFER:
                    ready = getattr(links, attr).transfer_time(nbytes)
                elif kind == _OP_LATENCY:
                    ready = getattr(links, attr).one_way_latency_s
            for pred_index, (kind, attr, nbytes) in pred_ops:
                arrival = finish[pred_index]
                if kind == _OP_TRANSFER:
                    arrival += getattr(links, attr).transfer_time(nbytes)
                elif kind == _OP_LATENCY:
                    arrival += getattr(links, attr).one_way_latency_s
                if arrival > ready:
                    ready = arrival
            finish[i] = ready + exec_time
        latency = 0.0
        for sink_index, (kind, attr, nbytes) in self._sinks:
            back = finish[sink_index]
            if kind == _OP_TRANSFER:
                back += getattr(links, attr).transfer_time(nbytes)
            elif kind == _OP_LATENCY:
                back += getattr(links, attr).one_way_latency_s
            if back > latency:
                latency = back
        return PlacementEvaluation(
            latency_s=latency,
            uplink_bytes=self.uplink_bytes,
            vehicle_energy_j=self.vehicle_energy_j,
            feasible=True,
        )


def processor_set(node: Node) -> tuple:
    """What a compiled plan reads of a node, by value: every field of
    every processor, in node order (best-fit ties go to the first listed).
    Nodes built alike -- a fleet's vehicles -- give equal values."""
    return tuple(
        (
            p.name, p.kind, p.peak_gops, p.tdp_watts, p.idle_watts,
            p.memory_gb, p.launch_overhead_s, tuple(p.efficiency.items()),
        )
        for p in node.processors
    )
