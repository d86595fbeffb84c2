"""Elastic Management: pipeline selection and service hang-up/resume.

Paper SIV-C: "The Elastic Management module can choose an optimal pipeline
of a Polymorphic Service to get a smallest end-to-end latency ... or
achieve other goals, such as energy efficiency. ... some services will be
hung up, which cannot be responded to within the required time no matter
what ... Once the network quality fails to meet the response time
requirement, it can dynamically adjust the pipeline ... If the network
quality and computation resources cannot support this service, the service
will be hung up until meeting requirements again."

:class:`ElasticManager.retune` is the periodic re-evaluation: it checks
every managed service against the current world (whose links the caller
updates as network quality moves) and switches, hangs or resumes
accordingly.  A service's pipelines are re-scored only when something the
decision reads has changed since its last call -- a link's bandwidth, rtt
or loss, the health view, the service's state, incumbent or deadline, or
the manager's policy; an unchanged tick returns the previous decision.
A node's processors are fixed when it is built, so they never change
under a kept decision; computation resources come and go through the
health view.  A scoring reads less than a decision -- not the
service's state, incumbent or deadline, nor the policy -- so the manager
keeps its last one and hands it to the next service whose scoring
inputs are equal: the copies of one service in a retune score their
pipelines once.  Plans are compiled once per value -- graph
factory, assignment and the resolved nodes' processor sets -- into a
table that every manager on one simulator shares, so a fleet partition's
vehicles compile each plan once between them.  This module is where
the DEIR *Differentiation* property lives -- each service is treated per
its own QoS and deadline.

Resilience extensions (paper SIII-A's unreliable environment):

* **hysteresis** -- ``switch_margin`` keeps the current pipeline unless a
  challenger beats it by a relative margin, so a link flapping around the
  QoS threshold does not thrash the service between pipelines;
* **degraded mode** -- ``degrade_before_hang`` falls back to the best
  *feasible* pipeline (rather than hanging up) when nothing meets the
  deadline, preferring stale-but-alive service for non-critical classes;
* **health-aware failover** -- choices can consult a
  :class:`~repro.edgeos.watchdog.HealthWatchdog`: pipelines that place
  work on an unhealthy tier are excluded until that tier recovers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..offload.placement import (
    CompiledPlacement,
    PlacementEvaluation,
    processor_set,
)
from ..offload.task import TaskGraph
from ..topology.nodes import Tier
from ..topology.world import World
from .service import Pipeline, PolymorphicService, ServiceState

if TYPE_CHECKING:
    from .watchdog import HealthWatchdog

__all__ = ["PipelineChoice", "ElasticManager"]

GOAL_LATENCY = "latency"
GOAL_ENERGY = "energy"


@dataclass(frozen=True)
class PipelineChoice:
    """Outcome of one service's re-evaluation."""

    service: str
    pipeline: str | None  # None => hung up
    evaluation: PlacementEvaluation | None
    switched: bool
    hung: bool
    degraded: bool = False


class ElasticManager:
    """Manages every service on the vehicle (paper Figure 6).

    ``switch_margin`` > 0 enables hysteresis (a challenger must improve the
    incumbent's score by that relative fraction to force a switch);
    ``degrade_before_hang`` enables the degraded-mode fallback.  Both
    default off, preserving the paper's original hang-up semantics.
    """

    def __init__(
        self,
        goal: str = GOAL_LATENCY,
        switch_margin: float = 0.0,
        degrade_before_hang: bool = False,
    ):
        if goal not in (GOAL_LATENCY, GOAL_ENERGY):
            raise ValueError(f"unknown goal {goal!r}")
        if switch_margin < 0:
            raise ValueError("switch_margin must be non-negative")
        self.goal = goal
        self.switch_margin = switch_margin
        self.degrade_before_hang = degrade_before_hang
        self._services: dict[str, PolymorphicService] = {}
        #: Decisions that changed a service's pipeline (hang-ups included).
        self.switches = 0
        # service name -> (world, inputs, choice): the service's last
        # decision that changed nothing (see :meth:`choose`).
        self._decisions: dict[str, tuple[World, tuple, PipelineChoice]] = {}
        # (world, evaluation key, evaluations): the last scoring, shared
        # by every service whose key matches (see :meth:`evaluate_pipelines`).
        self._evaluations: tuple | None = None
        # id(pipeline) -> (pipeline, graph_factory, world, plan): this
        # manager's view of ``memo``.
        self._compiled: dict[int, tuple] = {}
        #: Plans by graph factory, assignment and the interned processor
        #: sets of the nodes they resolve (see :meth:`_compiled_for`), and
        #: task graphs by factory, built once and only read after.  A
        #: :class:`~repro.scenario.DriveScenario` hands every manager its
        #: simulator's ``memo``, so managers on one kernel share them.
        self.memo: dict = {}

    def register(self, service: PolymorphicService) -> None:
        if service.name in self._services:
            raise ValueError(f"service {service.name!r} already registered")
        self._services[service.name] = service

    def service(self, name: str) -> PolymorphicService:
        return self._services[name]

    @property
    def services(self) -> list[PolymorphicService]:
        return list(self._services.values())

    # -- pipeline scoring ------------------------------------------------------

    def _score(self, evaluation: PlacementEvaluation) -> tuple:
        if self.goal == GOAL_ENERGY:
            return (evaluation.vehicle_energy_j, evaluation.latency_s)
        return (evaluation.latency_s, evaluation.vehicle_energy_j)

    @staticmethod
    def _pipeline_healthy(pipeline: Pipeline, health: HealthWatchdog | None) -> bool:
        if health is None:
            return True
        return all(health.tier_healthy(tier) for tier in pipeline.assignment.values())

    def task_graph(self, graph_factory) -> TaskGraph:
        """``graph_factory()``, built once per :attr:`memo` (read-only)."""
        graph = self.memo.get(graph_factory)
        if graph is None:
            graph = self.memo[graph_factory] = graph_factory()
        return graph

    def _compiled_for(
        self, service: PolymorphicService, pipeline: Pipeline, world: World
    ) -> CompiledPlacement:
        """The (cached) compiled plan for one pipeline of a service.

        Kept per :class:`Pipeline` object (frozen, so its assignment is
        fixed), graph factory and ``world``: a hit is one dict lookup.
        Otherwise the plan is looked up by value in :attr:`memo` -- graph
        factory, tier assignment and the resolved nodes' processor sets,
        each read once per node (its processors are fixed) and interned
        to a small id that equal sets share -- and compiled only if no
        manager sharing it has compiled an equal plan.
        """
        cached = self._compiled.get(id(pipeline))
        if (
            cached is not None
            and cached[0] is pipeline
            and cached[1] is service.graph_factory
            and cached[2] is world
        ):
            return cached[3]
        memo = self.memo
        set_ids = []
        for tier in sorted(set(pipeline.assignment.values())):
            node = world.node_for_tier(tier)
            # The entry holds the node, so its id is not reused meanwhile.
            seen = memo.get(("node", id(node)))
            if seen is None:
                ids = memo.setdefault("processor sets", {})
                seen = memo[("node", id(node))] = (
                    node, ids.setdefault(processor_set(node), len(ids))
                )
            set_ids.append(seen[1])
        value = (
            "plan", service.graph_factory,
            tuple(sorted(pipeline.assignment.items())), tuple(set_ids),
        )
        compiled = memo.get(value)
        if compiled is None:
            compiled = memo[value] = CompiledPlacement(
                self.task_graph(service.graph_factory), pipeline.placement(), world
            )
        # The entry holds the pipeline, so its id is not reused meanwhile.
        self._compiled[id(pipeline)] = (
            pipeline, service.graph_factory, world, compiled
        )
        return compiled

    def evaluate_pipelines(
        self,
        service: PolymorphicService,
        world: World,
        health: HealthWatchdog | None = None,
    ) -> dict[str, PlacementEvaluation]:
        """Cost of every pipeline of a service under current conditions.

        Pipelines placing work on a tier the watchdog marks unhealthy are
        excluded entirely -- failover happens by scoring only survivors.

        The manager keeps its last result in one slot, keyed by the world
        and :meth:`_evaluation_key`, and returns it to the next call with
        an equal key: the copies of one service in a retune are scored
        once.  The result is shared, so callers must not mutate it.
        """
        key = self._evaluation_key(service, world, health)
        kept = self._evaluations
        if kept is not None and kept[0] is world and kept[1] == key:
            return kept[2]
        links = world.links
        evaluations = {
            pipeline.name: self._compiled_for(service, pipeline, world).evaluate(links)
            for pipeline in service.pipelines
            if self._pipeline_healthy(pipeline, health)
        }
        self._evaluations = (world, key, evaluations)
        return evaluations

    def _pick(
        self,
        candidates: dict[str, PlacementEvaluation],
        previous: str | None,
    ) -> str:
        """Best candidate, with hysteresis in favour of the incumbent."""
        best_name = min(candidates, key=lambda n: self._score(candidates[n]))
        if (
            self.switch_margin > 0.0
            and previous is not None
            and previous in candidates
            and best_name != previous
        ):
            best = self._score(candidates[best_name])[0]
            incumbent = self._score(candidates[previous])[0]
            # Keep the incumbent unless the challenger clears the margin.
            if best > incumbent * (1.0 - self.switch_margin):
                return previous
        return best_name

    @staticmethod
    def _evaluation_key(
        service: PolymorphicService,
        world: World,
        health: HealthWatchdog | None,
    ) -> tuple:
        """Everything an evaluation reads besides the world's identity.

        Links enter by value (what ``transfer_time`` reads), so in-place
        writes and wholesale link replacement are both seen; nodes need no
        entry, their processors being fixed; pipelines compare by value,
        so the copies of one service share a key.
        """
        links = world.links
        ve, vc, ec = links.vehicle_edge, links.vehicle_cloud, links.edge_cloud
        return (
            ve.bandwidth_mbps, ve.rtt_s, ve.loss_rate,
            vc.bandwidth_mbps, vc.rtt_s, vc.loss_rate,
            ec.bandwidth_mbps, ec.rtt_s, ec.loss_rate,
            None if health is None
            else tuple(health.tier_healthy(tier) for tier in Tier.ALL),
            service.graph_factory, tuple(service.pipelines),
        )

    def _inputs(
        self,
        service: PolymorphicService,
        world: World,
        health: HealthWatchdog | None,
    ) -> tuple:
        """Everything a decision reads besides the world's identity: the
        evaluation key, the service's state, incumbent and deadline, and
        the manager's policy."""
        return self._evaluation_key(service, world, health) + (
            service.state, service.active_pipeline, service.deadline_s,
            self.goal, self.switch_margin, self.degrade_before_hang,
        )

    def choose(
        self,
        service: PolymorphicService,
        world: World,
        health: HealthWatchdog | None = None,
    ) -> PipelineChoice:
        """Pick the best pipeline meeting the deadline, or degrade/hang.

        A decision that left the service's state and incumbent as it found
        them (so it switched nothing and counted no hang) is kept with its
        inputs; while those inputs stay equal it is returned without
        re-scoring.  Any other decision has side effects and is always
        re-derived, so switch counts, ``hang_count``, hysteresis and
        degraded mode behave exactly as if every call re-scored.
        """
        inputs = self._inputs(service, world, health)
        kept = self._decisions.get(service.name)
        if kept is not None and kept[0] is world and kept[1] == inputs:
            return kept[2]
        state, previous = service.state, service.active_pipeline
        choice = self._decide(service, world, health)
        if service.state is state and service.active_pipeline == previous:
            self._decisions[service.name] = (world, inputs, choice)
        return choice

    def _decide(
        self,
        service: PolymorphicService,
        world: World,
        health: HealthWatchdog | None,
    ) -> PipelineChoice:
        """Score every pipeline and apply the outcome to ``service``."""
        evaluations = self.evaluate_pipelines(service, world, health=health)
        feasible = {
            name: ev
            for name, ev in evaluations.items()
            if ev.feasible and ev.latency_s <= service.deadline_s
        }
        previous = service.active_pipeline
        was_down = service.state in (ServiceState.HUNG, ServiceState.DEGRADED)

        if feasible:
            best_name = self._pick(feasible, previous)
            service.state = ServiceState.RUNNING
            service.active_pipeline = best_name
            choice = PipelineChoice(
                service=service.name,
                pipeline=best_name,
                evaluation=feasible[best_name],
                switched=(previous != best_name) or was_down,
                hung=False,
            )
        else:
            runnable = {
                name: ev for name, ev in evaluations.items() if ev.feasible
            }
            if self.degrade_before_hang and runnable:
                # Nothing meets the deadline, but something still runs:
                # serve best-effort on the cheapest surviving pipeline
                # rather than going dark (resume upgrades it later).
                best_name = self._pick(runnable, previous)
                service.state = ServiceState.DEGRADED
                service.active_pipeline = best_name
                choice = PipelineChoice(
                    service=service.name,
                    pipeline=best_name,
                    evaluation=runnable[best_name],
                    switched=previous != best_name,
                    hung=False,
                    degraded=True,
                )
            else:
                if service.state is ServiceState.RUNNING:
                    service.hang_count += 1
                service.state = ServiceState.HUNG
                service.active_pipeline = None
                choice = PipelineChoice(
                    service=service.name, pipeline=None, evaluation=None,
                    switched=previous is not None, hung=True,
                )
        if choice.switched:
            self.switches += 1
        return choice

    def retune(
        self, world: World, health: HealthWatchdog | None = None
    ) -> list[PipelineChoice]:
        """Re-evaluate all managed services against the current world."""
        return [
            self.choose(service, world, health=health)
            for service in self._services.values()
            if service.state
            in (ServiceState.RUNNING, ServiceState.DEGRADED, ServiceState.HUNG)
        ]
