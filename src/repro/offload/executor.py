"""Distributed execution of placed task graphs, in simulation time.

The placement evaluator (`repro.offload.placement`) is analytic: it prices
a placement assuming uncontended processors and links.  This module
*executes* the placement on the simulation kernel: every node's processors
and every inter-tier link are capacity-1 resources, tasks wait for their
inputs to arrive, transfers serialize on links, and concurrent jobs
contend -- which is how the platform discovers that a plan that looked
fine in isolation misses its deadline under load.

For a single job on an idle system the simulated latency equals the
analytic evaluation exactly (`tests/integration/test_executor.py` pins
this), which is the cross-validation DESIGN.md promises.

The executor is also where the platform survives an unreliable world
(paper SIII-A): wired to a :class:`~repro.faults.injector.FaultInjector`
it sees processors die and links drop, and -- given a
:class:`~repro.faults.resilience.RetryPolicy` -- it retries attempts with
exponential backoff, bounds them with per-attempt timeouts, and fails a
task over to a surviving tier once its home tier has burned its attempt
budget.  Without a retry policy, faults are fatal to the job (fail-fast),
which is exactly the resilience-off arm of
``benchmarks/bench_ablate_faults.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..faults.injector import FaultInjector, link_key, processor_key
from ..faults.resilience import RetryPolicy
from ..sim.core import Simulator
from ..sim.resources import Resource
from ..topology.nodes import Tier
from ..topology.world import World
from .placement import Placement
from .task import TaskGraph

__all__ = ["ExecutionResult", "DistributedExecutor", "TaskFailure"]


class TaskFailure(RuntimeError):
    """A task (or one of its transfers) exhausted its options and died."""


class _AttemptFailed(Exception):
    """Internal: one execution attempt failed but may be retried."""


#: Failover preference order when a tier's processors are all dead.
_FALLBACK_TIERS: dict[str, tuple[str, ...]] = {
    Tier.VEHICLE: (Tier.EDGE, Tier.CLOUD),
    Tier.EDGE: (Tier.VEHICLE, Tier.CLOUD),
    Tier.CLOUD: (Tier.EDGE, Tier.VEHICLE),
}


@dataclass
class ExecutionResult:
    """Outcome of one executed job."""

    graph_name: str
    submitted_at: float
    finished_at: float
    task_finish: dict[str, float] = field(default_factory=dict)
    transfer_seconds: float = 0.0
    deadline_s: float | None = None
    retries: int = 0
    replacements: int = 0
    failed: bool = False
    failure_reason: str = ""

    @property
    def latency_s(self) -> float:
        return self.finished_at - self.submitted_at

    @property
    def missed_deadline(self) -> bool:
        """Failed outright, or finished past its deadline budget."""
        if self.failed:
            return True
        return self.deadline_s is not None and self.latency_s > self.deadline_s


class DistributedExecutor:
    """Executes placements across the world's tiers on a shared simulator.

    ``faults`` wires in the live fault state; ``retry`` enables resilience
    (retry/backoff, attempt timeouts, tier failover).  With neither, the
    executor behaves exactly as the fault-free original: a missing
    processor fails the job process itself.
    """

    def __init__(
        self,
        sim: Simulator,
        world: World,
        faults: FaultInjector | None = None,
        retry: RetryPolicy | None = None,
    ):
        self.sim = sim
        self.world = world
        self.faults = faults
        self.retry = retry
        # One execution slot per processor; keyed (tier, processor name).
        self._processors: dict[tuple[str, str], Resource] = {}
        # One half-duplex channel per tier pair.
        self._links: dict[frozenset, Resource] = {}
        self.completed: list[ExecutionResult] = []

    def _processor_slot(self, tier: str, name: str) -> Resource:
        key = (tier, name)
        if key not in self._processors:
            self._processors[key] = Resource(self.sim, capacity=1)
        return self._processors[key]

    def _link_slot(self, a: str, b: str) -> Resource:
        key = frozenset((a, b))
        if key not in self._links:
            self._links[key] = Resource(self.sim, capacity=1)
        return self._links[key]

    # -- transfers -----------------------------------------------------------

    def _transfer(self, src: str, dst: str, nbytes: float, result: ExecutionResult):
        """Process: move bytes across the inter-tier link (serialized).

        Fault-aware: an outage before the transfer parks until recovery
        (resilient) or kills it (fail-fast); an outage *mid-transfer* costs
        the whole transfer, which is retried after backoff.
        """
        if src == dst:
            return
            yield  # pragma: no cover - generator marker
        link = self.world.links.between(src, dst)
        slot = self._link_slot(src, dst)
        key = link_key(src, dst)
        obs = self.sim.obs
        if obs.enabled:
            obs.count("offload.transfers", link=f"{min(src, dst)}-{max(src, dst)}")
            obs.count("offload.transfer_bytes", n=nbytes)
            obs.observe("offload.link_queue_depth", slot.queue_length)
        sim, faults = self.sim, self.faults
        attempt = 0
        while True:
            if faults is not None and faults.is_down(key):
                if self.retry is None:
                    raise TaskFailure(f"link {src}<->{dst} is down")
                yield faults.wait_up(key)
            grant = slot.request()
            try:
                yield grant
                duration = link.transfer_time(nbytes)
                if faults is None:
                    yield sim.timeout(duration)
                    result.transfer_seconds += duration
                    return
                winner, _ = yield sim.race(
                    sim.timeout(duration), faults.watch_down(key)
                )
                if winner == 0:
                    result.transfer_seconds += duration
                    return
            finally:
                slot.release(grant)
            # The link died under the transfer.
            if self.retry is None:
                raise TaskFailure(f"link {src}<->{dst} failed mid-transfer")
            if attempt >= self.retry.max_attempts - 1:
                raise TaskFailure(
                    f"link {src}<->{dst} failed {attempt + 1} transfers"
                )
            result.retries += 1
            yield sim.timeout(self.retry.delay_s(attempt))
            attempt += 1

    # -- task execution ----------------------------------------------------------

    def _pick_processor(self, tier: str, workload):
        """Best *live* device on a tier for a workload class, or None."""
        node = self.world.node_for_tier(tier)
        if self.faults is None:
            return node.best_processor_for(workload)
        live = [
            p
            for p in node.processors
            if p.supports(workload) and not self.faults.processor_down(tier, p.name)
        ]
        if not live:
            return None
        return max(live, key=lambda p: p.effective_gops(workload))

    def _execute_on(self, tier, task, result, priority):
        """Sub-generator: run the task body once on a tier's best device."""
        processor = self._pick_processor(tier, task.workload)
        if processor is None:
            raise _AttemptFailed(
                f"{tier} has no processor for {task.workload.value}"
            )
        slot = self._processor_slot(tier, processor.name)
        obs = self.sim.obs
        if obs.enabled:
            obs.observe(
                "offload.proc_queue_depth", slot.queue_length,
                tier=tier, device=processor.name,
            )
        grant = slot.request(priority=priority)
        try:
            yield grant
            if self.faults is None:
                yield self.sim.timeout(
                    processor.execution_time(task.work_gop, task.workload)
                )
                return
            slowdown = self.faults.processor_slowdown(tier, processor.name)
            duration = processor.execution_time(
                task.work_gop, task.workload, slowdown=slowdown
            )
            winner, _ = yield self.sim.race(
                self.sim.timeout(duration),
                self.faults.watch_down(processor_key(tier, processor.name)),
            )
            if winner == 1:
                raise _AttemptFailed(f"{processor.name} on {tier} died mid-task")
        finally:
            slot.release(grant)

    def _ship_inputs(self, graph, name, task, tier, done, result, actual_tiers):
        """Sub-generator: wait for predecessors and land all inputs on ``tier``."""
        waits = []
        if task.source_bytes:
            waits.append(
                self.sim.process(
                    self._transfer(Tier.VEHICLE, tier, task.source_bytes, result)
                )
            )
        for pred in graph.predecessors(name):
            waits.append(
                self.sim.process(
                    self._after_pred(
                        done[pred], graph.task(pred), pred, tier, result, actual_tiers
                    )
                )
            )
        if waits:
            yield self.sim.all_of(waits)

    def _attempt(self, graph, name, task, tier, done, result, priority, actual_tiers):
        """Process: one full attempt -- ship inputs here, then execute here."""
        yield from self._ship_inputs(
            graph, name, task, tier, done, result, actual_tiers
        )
        yield from self._execute_on(tier, task, result, priority)

    def _failover_tier(self, current: str, workload) -> str:
        """First fallback tier with a live device for the class, else stay."""
        for candidate in _FALLBACK_TIERS.get(current, ()):
            if self._pick_processor(candidate, workload) is not None:
                return candidate
        return current

    def _run_task(self, graph, name, placement, done, result, priority, actual_tiers):
        task = graph.task(name)
        tier = placement.tier_of(name)
        sim, retry = self.sim, self.retry
        # Built once per task, not once per retry attempt; the per-task
        # process name is load-bearing for traces and divergence reports.
        attempt_name = f"attempt:{graph.name}/{name}"
        attempt = 0
        while True:
            attempt_proc = sim.process(
                self._attempt(
                    graph, name, task, tier, done, result, priority, actual_tiers
                ),
                name=attempt_name,
            )
            try:
                if retry is not None and retry.attempt_timeout_s is not None:
                    winner, _ = yield sim.race(
                        attempt_proc, sim.timeout(retry.attempt_timeout_s)
                    )
                    if winner == 1:
                        attempt_proc.try_interrupt("attempt timeout")
                        raise _AttemptFailed(f"attempt timed out on {tier}")
                else:
                    yield attempt_proc
                break  # success
            except _AttemptFailed as fail:
                if retry is None or attempt >= retry.max_attempts - 1:
                    done[name].fail(TaskFailure(str(fail)))
                    return
                # Commutative counter bump: atomic within one event, same
                # total whatever order task processes fire in.
                result.retries += 1
                yield sim.timeout(retry.delay_s(attempt))
                attempt += 1
                if attempt >= retry.same_tier_attempts:
                    new_tier = self._failover_tier(tier, task.workload)
                    if new_tier != tier:
                        tier = new_tier
                        # Same: order-insensitive counter increment.
                        result.replacements += 1
            except TaskFailure as fail:
                done[name].fail(fail)
                return
        actual_tiers[name] = tier
        result.task_finish[name] = self.sim.now
        done[name].succeed(name)

    def _after_pred(self, pred_done, pred_task, pred_name, tier, result, actual_tiers):
        """Process: wait for a predecessor, then ship its output here."""
        yield pred_done
        src = actual_tiers[pred_name]
        transfer = self._transfer(src, tier, pred_task.output_bytes, result)
        yield self.sim.process(transfer)

    def _run_job(self, graph, placement, priority, deadline_s):
        result = ExecutionResult(
            graph_name=graph.name,
            submitted_at=self.sim.now,
            finished_at=self.sim.now,
            deadline_s=deadline_s,
        )
        done = {name: self.sim.event() for name in graph.task_names}
        actual_tiers: dict[str, str] = {}
        for name in graph.task_names:
            self.sim.process(
                self._run_task(
                    graph, name, placement, done, result, priority, actual_tiers
                )
            )
        try:
            yield self.sim.all_of(list(done.values()))
            # Results return to the vehicle (from wherever the sink ran).
            returns = []
            for sink in graph.sinks:
                sink_tier = actual_tiers.get(sink, placement.tier_of(sink))
                returns.append(
                    self.sim.process(
                        self._transfer(sink_tier, Tier.VEHICLE,
                                       graph.task(sink).output_bytes, result)
                    )
                )
            if returns:
                yield self.sim.all_of(returns)
        except TaskFailure as err:
            if self.faults is None:
                raise  # fail-fast contract of the fault-free executor
            result.failed = True
            result.failure_reason = str(err)
        result.finished_at = self.sim.now
        self.completed.append(result)
        obs = self.sim.obs
        if obs.enabled:
            obs.count("offload.jobs")
            obs.observe("offload.job_latency_s", result.latency_s)
            obs.observe("offload.job_transfer_s", result.transfer_seconds)
            if result.retries:
                obs.count("offload.retries", n=result.retries)
            if result.replacements:
                obs.count("offload.failovers", n=result.replacements)
            if result.failed:
                obs.count("offload.jobs_failed")
            if result.missed_deadline:
                obs.count("offload.deadline_misses")
        return result

    def submit(
        self,
        graph: TaskGraph,
        placement: Placement,
        priority: int = 0,
        deadline_s: float | None = None,
    ):
        """Execute a placed graph; returns a Process yielding ExecutionResult.

        ``deadline_s`` is an accounting budget relative to submission: the
        result's :attr:`ExecutionResult.missed_deadline` reflects it.
        """
        placement.validate(graph)
        return self.sim.process(
            self._run_job(graph, placement, priority, deadline_s),
            name=f"exec:{graph.name}",
        )
