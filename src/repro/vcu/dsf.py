"""DSF: the Dynamic Scheduling Framework (paper SIV-B2).

Runs task graphs on the mHEP inside simulation time.  Responsibilities,
straight from the paper:

* *Computing resources collection* -- consult the mHEP's device profiles
  (static ability + dynamic queue state) before every dispatch decision.
* *Task scheduling* -- "divides the original applications into some
  sub-tasks ... matches the tasks with the computing resources according
  to their computing characteristics", honoring QoS priority, then
  "reduces the results of each task and returns it".

Dispatch policy: earliest-estimated-finish-time over supported devices,
where the estimate accounts for the work already queued on each device.
Higher-priority jobs preempt queue positions (not running tasks).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hw.accounting import TaskAccounting
from ..hw.energy import EnergyMeter
from ..offload.task import TaskGraph
from ..sim.core import Simulator
from .mhep import MHEP, Device

__all__ = ["JobResult", "DSF"]


@dataclass
class JobResult:
    """Outcome of one scheduled task graph."""

    graph_name: str
    submitted_at: float
    finished_at: float
    task_devices: dict[str, str] = field(default_factory=dict)
    task_finish: dict[str, float] = field(default_factory=dict)

    @property
    def latency_s(self) -> float:
        return self.finished_at - self.submitted_at


class DSF:
    """Scheduler bound to a simulator and an mHEP.

    ``policy`` selects the dispatch rule:

    * ``"eft"`` (default) -- earliest estimated finish time, the paper's
      profile-driven matching of tasks to resources;
    * ``"fastest"`` -- always the nominally fastest supporting device,
      ignoring queue state (a static-affinity baseline);
    * ``"round-robin"`` -- rotate over supporting devices (a load-spreading
      baseline blind to heterogeneity).
    """

    POLICIES = ("eft", "fastest", "round-robin")

    def __init__(self, sim: Simulator, mhep: MHEP, policy: str = "eft"):
        if policy not in self.POLICIES:
            raise ValueError(f"unknown policy {policy!r}; choose from {self.POLICIES}")
        self.sim = sim
        self.mhep = mhep
        self.policy = policy
        self.energy = EnergyMeter()
        self._queued_seconds: dict[str, float] = {}  # device -> backlog estimate
        self._rr_counter = 0
        # Per-task exec/wait/FLOP samples accumulate here and fold into the
        # recorder once per sim step (kernel flush hook), not per task.
        self._accounting = TaskAccounting(prefix="vcu")
        self._touched: dict[str, Device] = {}
        sim.add_flush_hook(self._flush_obs)

    # -- dispatch ----------------------------------------------------------------

    def _pick_device(self, task) -> Device:
        """Dispatch a task to a device per the configured policy."""
        candidates = self.mhep.devices_for(task.workload)
        if not candidates:
            raise RuntimeError(
                f"no online device supports workload {task.workload.value!r}"
            )
        if self.policy == "round-robin":
            device = candidates[self._rr_counter % len(candidates)]
            self._rr_counter += 1
            return device
        if self.policy == "fastest":
            return max(
                candidates, key=lambda d: d.model.effective_gops(task.workload)
            )
        best, best_finish = None, float("inf")
        for device in candidates:
            exec_time = device.model.execution_time(task.work_gop, task.workload)
            backlog = self._queued_seconds.get(device.name, 0.0)
            finish = backlog + exec_time
            if finish < best_finish:
                best, best_finish = device, finish
        return best

    def submit(self, graph: TaskGraph, priority: int = 0):
        """Schedule a task graph; returns a Process yielding a JobResult."""
        return self.sim.process(self._run_job(graph, priority), name=f"dsf:{graph.name}")

    def _run_job(self, graph: TaskGraph, priority: int):
        result = JobResult(
            graph_name=graph.name, submitted_at=self.sim.now, finished_at=self.sim.now
        )
        task_done_events = {
            name: self.sim.event() for name in graph.task_names
        }
        for name in graph.task_names:
            self.sim.process(
                self._run_task(graph, name, priority, task_done_events, result),
                # Per-task process identity is load-bearing for traces.
                name=f"dsf:{graph.name}:{name}",
            )
        yield self.sim.all_of(list(task_done_events.values()))
        result.finished_at = self.sim.now
        return result

    def _run_task(self, graph, name, priority, done_events, result):
        task = graph.task(name)
        # Wait for all predecessors.
        preds = [done_events[p] for p in graph.predecessors(name)]
        if preds:
            yield self.sim.all_of(preds)

        try:
            device = self._pick_device(task)
        except RuntimeError as err:
            # Propagate scheduling failure to the job instead of hanging it.
            self.sim.obs.count("vcu.dispatch_failures")
            done_events[name].fail(err)
            return
        exec_time = device.model.execution_time(task.work_gop, task.workload)
        self._queued_seconds[device.name] = (
            self._queued_seconds.get(device.name, 0.0) + exec_time
        )
        requested_at = self.sim.now
        grant = device.resource.request(priority=priority)
        try:
            # The yield is inside the try: an interrupt while still queued
            # must cancel the request (and unwind the queue accounting),
            # not leak the slot forever.
            yield grant
            yield self.sim.timeout(exec_time)
            device.busy_seconds += exec_time
            device.tasks_completed += 1
            self.energy.record_busy(device.model, exec_time)
        finally:
            device.resource.release(grant)
            self._queued_seconds[device.name] -= exec_time
        if self.sim.obs.enabled:
            self._accounting.record(
                device.name,
                exec_time,
                self.sim.now - requested_at - exec_time,
                task.work_gop,
            )
            self._touched[device.name] = device
        result.task_devices[name] = device.name
        result.task_finish[name] = self.sim.now
        done_events[name].succeed(name)

    def _flush_obs(self, obs) -> None:
        """Kernel flush hook: fold batched task accounting into ``obs``.

        Counters and histogram batches reproduce per-task recording
        exactly; the utilization/energy gauges become per-flush spot
        readings (their value at flush time) instead of per-completion
        ones -- same final reading, fewer writes.
        """
        if not self._touched:
            return
        self._accounting.flush(obs)
        now = self.sim.now
        for device_name in sorted(self._touched):
            obs.gauge(
                "vcu.utilization",
                self._touched[device_name].utilization(now),
                device=device_name,
            )
        obs.gauge("vcu.energy_busy_j", self.energy.busy_joules())
        self._touched.clear()
