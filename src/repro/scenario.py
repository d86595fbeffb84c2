"""High-level drive scenarios: the whole platform, one call.

This is the adoption surface for downstream users: build a
:class:`DriveScenario`, register polymorphic services, and :meth:`run` a
drive.  The scenario owns the wiring the examples would otherwise repeat --
simulator, mHEP + DSF, DDI collection, Elastic Management re-tuning as
coverage changes along the road, on-board execution of each service's
vehicle-side share -- and returns a consolidated report.

Coverage model: DSRC quality to the serving XEdge degrades with distance
(full rate near an RSU, collapsing toward the coverage edge, dead in
gaps), which is what drives pipeline switching during the drive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .edgeos.elastic import ElasticManager
from .edgeos.service import PolymorphicService
from .edgeos.sharing import DataSharingBus
from .obs.metrics import Counter, Summary, Timeline
from .obs.recorder import Recorder
from .offload.task import TaskGraph
from .topology.nodes import Tier
from .topology.world import World, build_default_world
from .sim.core import Simulator, raise_failure
from .vcu.dsf import DSF
from .vcu.mhep import MHEP

if TYPE_CHECKING:
    from .ddi.service import DDIService
    from .offload.executor import DistributedExecutor

__all__ = [
    "ServiceReport",
    "ScenarioReport",
    "DriveScenario",
]

DSRC_FULL_MBPS = 27.0
DSRC_DEAD_MBPS = 0.02

@dataclass
class ServiceReport:
    """Per-service outcome of a drive."""

    name: str
    invocations: int = 0
    deadline_misses: int = 0
    hung_ticks: int = 0
    latency: Summary = None
    executed_latency: Summary = None
    pipeline_timeline: Timeline = None

    def __post_init__(self):
        if self.latency is None:
            self.latency = Summary(f"{self.name}:latency")
        if self.executed_latency is None:
            self.executed_latency = Summary(f"{self.name}:executed")
        if self.pipeline_timeline is None:
            self.pipeline_timeline = Timeline(f"{self.name}:pipeline")

    @property
    def switches(self) -> int:
        return self.pipeline_timeline.changes()


@dataclass
class ScenarioReport:
    """Everything a drive produced."""

    duration_s: float
    services: dict[str, ServiceReport] = field(default_factory=dict)
    vehicle_energy_j: float = 0.0
    ddi_records: int = 0
    ddi_cache_hit_rate: float = 0.0

    def service(self, name: str) -> ServiceReport:
        return self.services[name]


class DriveScenario:
    """One vehicle driving past XEdge servers, running managed services."""

    def __init__(
        self,
        world: World | None = None,
        seed: int = 0,
        tick_s: float = 1.0,
        ddi_root: str | None = None,
        execute_distributed: bool = False,
        observe: Recorder | None = None,
        sim: Simulator | None = None,
        label: str = "cav",
    ):
        """``execute_distributed=True`` additionally runs every invocation's
        full placed graph through the :class:`DistributedExecutor`, so the
        report's ``executed_latency`` includes queueing/contention the
        analytic ``latency`` cannot see.

        ``observe`` is the platform-wide instrumentation wiring point: pass
        a :class:`repro.obs.Collector` and one recorder is installed across
        every subsystem sharing this scenario's simulator (kernel, DSF,
        executor) plus the scenario's own drive-loop hooks; export its
        metrics/trace JSON after :meth:`run`.  Omitted, every hook hits the
        no-op recorder.

        ``sim`` makes the scenario *shardable*: pass an existing simulator
        and this scenario coexists with others on the same event loop (one
        partition of a fleet runs many labelled scenarios on one kernel).
        A shared simulator brings its own recorder, so ``observe`` cannot
        be combined with it.  ``label`` names this vehicle's processes on
        the shared loop (``<label>/drive``)."""
        if tick_s <= 0:
            raise ValueError("tick must be positive")
        if sim is not None and observe is not None:
            raise ValueError("a shared sim brings its own recorder; "
                             "pass observe= to the Simulator instead")
        self.world = world or build_default_world()
        self.tick_s = tick_s
        self.label = label
        self.execute_distributed = execute_distributed
        self.rng = np.random.default_rng(seed)
        self.sim = sim if sim is not None else Simulator(obs=observe)
        self.obs: Recorder = self.sim.obs
        self.mhep = MHEP(self.sim)
        for processor in self.world.vehicle.processors:
            self.mhep.register(processor)
        self.dsf = DSF(self.sim, self.mhep)
        self.manager = ElasticManager()
        self.manager.memo = self.sim.memo
        self.sharing = DataSharingBus()
        self.ddi: DDIService | None = None
        if ddi_root is not None:
            from .ddi.diskdb import DiskDB
            from .ddi.service import DDIService

            self.ddi = DDIService(lambda: self.sim.now, DiskDB(ddi_root))
        self._periods: dict[str, float] = {}
        self._pending_report: ScenarioReport | None = None

    def add_service(self, service: PolymorphicService, period_s: float = 1.0) -> None:
        """Manage a service, invoking it every ``period_s`` of the drive."""
        if period_s <= 0:
            raise ValueError("period must be positive")
        self.manager.register(service)
        self._periods[service.name] = period_s

    def attach_obd(self, profile) -> None:
        """Wire an OBD collector to the scenario's DDI (requires ddi_root)."""
        if self.ddi is None:
            raise RuntimeError("scenario built without a DDI root")
        from .ddi.collectors import OBDCollector

        self.ddi.attach_collector(OBDCollector(profile=profile, rng=self.rng))

    @cached_property
    def executor(self) -> DistributedExecutor:
        """The executor ``execute_distributed`` runs each invocation on,
        built on first use: an executor holds no state until it is
        submitted to, and drives that run on-board never touch it."""
        from .offload.executor import DistributedExecutor

        return DistributedExecutor(self.sim, self.world)

    # -- coverage-driven link quality ------------------------------------------

    def dsrc_quality_at(self, time_s: float) -> float:
        """DSRC bandwidth to the nearest XEdge at the vehicle's position."""
        edge = self.world.serving_edge(time_s)
        if edge is None:
            return DSRC_DEAD_MBPS
        x = self.world.vehicle.position(time_s)
        z = abs(x - edge.position_m) / edge.coverage_radius_m
        # Full rate in the inner half of the cell, steep rolloff after.
        return max(DSRC_DEAD_MBPS, DSRC_FULL_MBPS * (1.0 - max(0.0, z - 0.5) * 2.0) ** 2)

    def _record_executed(self, proc, service_report: ServiceReport):
        """Process: await a distributed execution and record its latency."""
        try:
            result = yield proc
        except RuntimeError:
            return
        service_report.executed_latency.record(result.latency_s)

    # -- the drive loop ------------------------------------------------------------

    def launch(self, duration_s: float) -> ScenarioReport:
        """Register the drive loop on the simulator without running it.

        The sharding entry point: a fleet partition launches one scenario
        per vehicle on a shared simulator, then drives the loop itself in
        barrier-aligned rounds (``sim.run(until=barrier_s)``).  Returns
        the report object, which fills in as the drive progresses; call
        :meth:`finalize` once the simulator is done to complete the
        energy/DDI fields.

        A drive loop that raises ends the run: its exception propagates
        out of the ``sim.run`` that fires the loop's failure, so no
        caller mistakes a dead drive for a finished one.
        """
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        report = ScenarioReport(duration_s=duration_s)
        services = self.manager.services
        for service in services:
            report.services[service.name] = ServiceReport(name=service.name)
        next_invocation = {service.name: 0.0 for service in services}
        # (service, pipeline) -> reusable vehicle-share TaskGraph (or None
        # when the pipeline places nothing locally).  The share's task set
        # is a pure function of the pipeline assignment, and a DSF job
        # never mutates its graph, so every tick submits the same share.
        local_graphs: dict[tuple[str, str], TaskGraph | None] = {}

        obs = self.obs

        def control_loop(sim):
            # The series recorded every tick, each held from the record
            # that creates it: the drive's link samples, and per service
            # (invocations, latency) and its deadline-miss counter.
            dsrc_series = None
            invoked_series: dict[str, tuple] = {}
            missed_series: dict[str, Counter] = {}
            while sim.now < duration_s:
                now = sim.now  # a tick runs at one instant
                # 1. Update link quality from coverage geometry.
                dsrc_mbps = self.dsrc_quality_at(now)
                self.world.links.vehicle_edge.bandwidth_mbps = dsrc_mbps
                if dsrc_series is None:
                    dsrc_series = obs.histogram("scenario.dsrc_mbps")
                dsrc_series.observe(dsrc_mbps)
                # 2. Elastic re-tune of the services the manager runs
                # (compromised, reinstalling and stopped ones sit out).
                for choice in self.manager.retune(self.world):
                    service = self.manager.service(choice.service)
                    service_report = report.services[service.name]
                    previous = (
                        service_report.pipeline_timeline.values[-1]
                        if service_report.pipeline_timeline.values else None
                    )
                    current = choice.pipeline or "HUNG"
                    service_report.pipeline_timeline.record(now, current)
                    if obs.enabled and previous is not None and current != previous:
                        obs.count("scenario.pipeline_switches", service=service.name)
                        obs.instant(
                            "scenario.pipeline_switch", track="scenario",
                            service=service.name, pipeline=current,
                        )
                    if choice.hung:
                        service_report.hung_ticks += 1
                        obs.count("scenario.hung_ticks", service=service.name)
                        continue
                    # 3. Invoke the service if its period elapsed.
                    if now + 1e-9 < next_invocation[service.name]:
                        continue
                    next_invocation[service.name] = now + self._periods[service.name]
                    service_report.invocations += 1
                    evaluation = choice.evaluation
                    service_report.latency.record(evaluation.latency_s)
                    series = invoked_series.get(service.name)
                    if series is None:
                        series = invoked_series[service.name] = (
                            obs.counter("scenario.invocations",
                                        service=service.name),
                            obs.histogram("scenario.latency_s",
                                          service=service.name),
                        )
                    series[0].inc()
                    series[1].observe(evaluation.latency_s)
                    if evaluation.latency_s > service.deadline_s:
                        service_report.deadline_misses += 1
                        missed = missed_series.get(service.name)
                        if missed is None:
                            missed = missed_series[service.name] = obs.counter(
                                "scenario.deadline_misses", service=service.name
                            )
                        missed.inc()
                    # 4. Execute the invocation.
                    if self.execute_distributed:
                        # Full placed graph through the distributed executor:
                        # executed latencies include queueing.
                        proc = self.executor.submit(
                            service.graph_factory(),
                            service.pipeline(choice.pipeline).placement(),
                            priority=service.qos,
                        )
                        sim.process(
                            self._record_executed(proc, service_report)
                        )
                    else:
                        # On-board share only, through the VCU's DSF: the
                        # vehicle-placed tasks and every edge between two
                        # of them, so a task waits for its on-board inputs.
                        # The share is built once per (service, pipeline)
                        # and re-submitted every tick: a job never mutates
                        # it.
                        key = (service.name, choice.pipeline)
                        if key not in local_graphs:
                            # Cache fill: once per (service, pipeline).
                            assignment = service.pipeline(choice.pipeline).assignment
                            graph = self.manager.task_graph(service.graph_factory)
                            local_tasks = [
                                task for task in graph.tasks
                                if assignment[task.name] == Tier.VEHICLE
                            ]
                            share = None
                            if local_tasks:
                                share = TaskGraph(service.name)
                                for task in local_tasks:
                                    share.add_task(task)
                                for task in local_tasks:
                                    for consumer in graph.successors(task.name):
                                        if assignment[consumer] == Tier.VEHICLE:
                                            share.add_edge(task.name, consumer)
                            local_graphs[key] = share
                        local_graph = local_graphs[key]
                        if local_graph is not None:
                            self.dsf.submit(local_graph, priority=service.qos)
                # 5. DDI collection.
                if self.ddi is not None:
                    self.ddi.collect_all(now)
                yield sim.timeout(self.tick_s)

        drive = self.sim.process(control_loop(self.sim), name=f"{self.label}/drive")
        drive.callbacks.append(raise_failure)
        self._pending_report = report
        return report

    def finalize(self) -> ScenarioReport:
        """Complete a launched drive's report (energy, DDI totals) and,
        on a live recorder, set the drive's end-of-run gauges."""
        report = self._pending_report
        if report is None:
            raise RuntimeError("finalize() without a launched drive")
        self._pending_report = None
        obs = self.obs
        report.vehicle_energy_j = self.dsf.energy.busy_joules()
        if self.ddi is not None:
            report.ddi_records = self.ddi.uploads
            report.ddi_cache_hit_rate = self.ddi.cache.stats.hit_rate
        if obs.enabled:
            self.dsf.record_gauges()
            obs.gauge("scenario.vehicle_energy_j", report.vehicle_energy_j)
            if self.ddi is not None:
                obs.gauge("scenario.ddi_records", report.ddi_records)
                obs.gauge("scenario.ddi_cache_hit_rate", report.ddi_cache_hit_rate)
        return report

    def run(self, duration_s: float) -> ScenarioReport:
        """Execute the drive and return the consolidated report."""
        self.launch(duration_s)
        self.sim.run()
        return self.finalize()
