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
A job runs on kernel callbacks, not processes, and a task costs one
kernel entry, its ``Timeout``: ``submit`` dispatches the root tasks at
once, a device slot's grant callback starts the task's ``Timeout``, and
the timeout's callback records the task, releases the device (which
starts the next waiting task) and dispatches the successors it made
ready.  The job's ``done`` event is settled in place when nothing waits
on it.

What a dispatch needs of its graph -- roots, in-degrees, successors, and
each task's candidate devices with its execution time on each -- is
worked out once per graph into a plan, which every dispatch checks
against the graph's ``version`` and the mHEP's ``membership`` before
picking from it, so a device that joined or left is seen at the next
dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from weakref import WeakKeyDictionary

from ..hw.energy import EnergyMeter
from ..offload.task import Task, TaskGraph
from ..sim.core import Event, Simulator, Timeout
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


class _Plan:
    """What dispatching one graph on one mHEP needs, worked out once.

    The graph's roots, its in-degree table, each task's successors, and
    each task with its candidates: ``(device, exec_time)`` pairs over the
    online devices that support it, in registration order (under the
    ``fastest`` policy, only the nominally fastest of them).  It holds
    while the graph's ``version`` and the mHEP's ``membership`` do.
    """

    __slots__ = ("version", "membership", "roots", "in_degrees", "successors",
                 "tasks")

    def __init__(self, graph: TaskGraph, mhep: MHEP, fastest: bool):
        self.version = graph.version
        self.membership = mhep.membership
        self.roots = graph.roots
        self.in_degrees = graph.in_degrees()
        self.successors = {name: graph.successors(name) for name in self.in_degrees}
        self.tasks: dict[str, tuple[Task, tuple[tuple[Device, float], ...]]] = {}
        for name in self.in_degrees:
            task = graph.task(name)
            workload = task.workload
            devices = mhep.devices_for(workload)
            if fastest and devices:
                devices = [max(devices, key=lambda d: d.model.effective_gops(workload))]
            self.tasks[name] = (task, tuple(
                (device, device.model.execution_time(task.work_gop, workload))
                for device in devices
            ))

    def holds(self, graph: TaskGraph, mhep: MHEP) -> bool:
        return self.version == graph.version and self.membership == mhep.membership


class _Job:
    """A graph in flight; ``unfinished`` counts each task's pending inputs."""

    __slots__ = ("graph", "plan", "priority", "result", "done", "unfinished")

    def __init__(self, sim: Simulator, graph: TaskGraph, plan: _Plan, priority: int):
        self.graph = graph
        self.plan = plan
        self.priority = priority
        now = sim.now
        self.result = JobResult(graph.name, now, now)
        self.done = sim.event()
        self.unfinished = dict(plan.in_degrees)


class _Run:
    """One dispatched task: its device slot's token and its ``Timeout``'s
    value.  ``started`` is stamped when the device is granted."""

    __slots__ = ("job", "task", "device", "exec_time", "requested_at", "started")

    def __init__(self, job: _Job, task: Task, device: Device, exec_time: float,
                 requested_at: float):
        self.job = job
        self.task = task
        self.device = device
        self.exec_time = exec_time
        self.requested_at = requested_at


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
        self._queued_seconds: dict[Device, float] = {}  # backlog estimate
        self._rr_counter = 0
        # device -> the series a completed task records into, resolved at
        # the device's first completion (see :meth:`_finish`).
        self._series: dict[Device, tuple] = {}
        # graph -> its dispatch plan; an entry goes with its graph.
        self._plans: WeakKeyDictionary[TaskGraph, _Plan] = WeakKeyDictionary()

    # -- dispatch ----------------------------------------------------------------

    def _plan(self, graph: TaskGraph) -> _Plan:
        """The graph's dispatch plan, made anew if it no longer holds."""
        plan = self._plans.get(graph)
        if plan is None or not plan.holds(graph, self.mhep):
            plan = self._plans[graph] = _Plan(graph, self.mhep, self.policy == "fastest")
        return plan

    def submit(self, graph: TaskGraph, priority: int = 0) -> Event:
        """Schedule a task graph, dispatching its root tasks now; returns
        the job's ``done`` event, which succeeds with the
        :class:`JobResult` when the last task completes (settled in place
        if nothing waits on it) or fails on a dispatch error."""
        job = _Job(self.sim, graph, self._plan(graph), priority)
        if job.unfinished:
            self._dispatch(job, job.plan.roots)
        else:  # an empty graph
            job.done.settle(job.result)
        return job.done

    def _dispatch(self, job: _Job, names: list[str]) -> None:
        """Send each named task of ``job`` to the device the policy picks
        from its candidates in the job's plan (ties go to the first
        listed)."""
        sim = self.sim
        backlog = self._queued_seconds
        tasks = job.plan.tasks
        round_robin = self.policy == "round-robin"
        for name in names:
            task, candidates = tasks[name]
            if not candidates:
                # Fail the job instead of hanging it; its other branches run on.
                sim.obs.count("vcu.dispatch_failures")
                if not job.done.triggered:
                    job.done.fail(RuntimeError(
                        f"no online device supports workload {task.workload.value!r}"
                    ))
                continue
            if round_robin:
                device, exec_time = candidates[self._rr_counter % len(candidates)]
                self._rr_counter += 1
            else:  # earliest finish; a fastest plan lists one candidate
                device = None
                for candidate, candidate_time in candidates:
                    finish = backlog.get(candidate, 0.0) + candidate_time
                    if device is None or finish < best_finish:
                        device, exec_time, best_finish = candidate, candidate_time, finish
            backlog[device] = backlog.get(device, 0.0) + exec_time
            run = _Run(job, task, device, exec_time, sim.now)
            device.resource.acquire(run, self._start, job.priority)

    def _start(self, run: _Run) -> None:
        """The device is granted: the task runs for ``exec_time`` from now."""
        run.started = self.sim.now
        self.sim.timeout(run.exec_time, run).callbacks.append(self._finish)

    def _finish(self, timeout: Timeout) -> None:
        sim = self.sim
        now = sim.now
        run = timeout._value
        job, task, device, exec_time = run.job, run.task, run.device, run.exec_time
        name = device.name
        device.busy_seconds += exec_time
        device.tasks_completed += 1
        self.energy.record_busy(device.model, exec_time)
        device.resource.release(run)
        self._queued_seconds[device] -= exec_time
        series = self._series.get(device)
        if series is None:
            obs = sim.obs
            series = self._series[device] = (
                obs.counter("vcu.tasks_completed", device=name),
                obs.histogram("vcu.task_exec_s", device=name),
                obs.histogram("vcu.queue_wait_s", device=name),
                # The FLOP ledger: ties scheduled work to the repro.nn
                # cost models.
                obs.counter("vcu.task_gops", device=name),
            )
        completed, exec_s, wait_s, gops = series
        completed.inc()
        exec_s.observe(exec_time)
        wait_s.observe(run.started - run.requested_at)
        gops.inc(task.work_gop)
        result = job.result
        result.task_devices[task.name] = name
        result.task_finish[task.name] = now
        plan = job.plan
        if not plan.holds(job.graph, self.mhep):
            plan = job.plan = self._plan(job.graph)
        ready = []
        unfinished = job.unfinished
        for successor in plan.successors[task.name]:
            unfinished[successor] -= 1
            if not unfinished[successor]:
                ready.append(successor)
        if ready:
            self._dispatch(job, ready)
        if len(result.task_finish) == len(job.unfinished):
            result.finished_at = now
            job.done.settle(result)

    def record_gauges(self) -> None:
        """Set ``vcu.utilization`` for every device that completed a task,
        in name order, and ``vcu.energy_busy_j``.  A drive calls this
        once, from :meth:`~repro.scenario.DriveScenario.finalize`."""
        devices = sorted(
            (name, device)
            for name, device in self.mhep._devices.items()
            if device.tasks_completed
        )
        if not devices:
            return
        obs, now = self.sim.obs, self.sim.now
        for name, device in devices:
            obs.gauge("vcu.utilization", device.utilization(now), device=name)
        obs.gauge("vcu.energy_busy_j", self.energy.busy_joules())
