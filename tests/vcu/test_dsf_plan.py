"""The DSF's per-graph dispatch plan against picks made afresh.

A plan holds each task's ``(device, exec_time)`` candidates, worked out
once per graph.  It must pick exactly as timing every candidate at every
dispatch does, and must be remade when the mHEP's membership or the
graph itself changes.
"""

from dataclasses import replace

import pytest

from repro.hw import ProcessorModel, WorkloadClass, catalog
from repro.offload import Task, TaskGraph
from repro.sim import Simulator
from repro.vcu import DSF, MHEP, SECOND_LEVEL
from repro.vcu.dsf import _Run

GPU, CPU = "Jetson TX2 Max-P", "Intel i7-6700"


class OracleDSF(DSF):
    """Picks as the DSF did before dispatch plans: every dispatch reads the
    mHEP's online candidates and times the task on each of them."""

    def _dispatch(self, job, names):
        sim = self.sim
        backlog = self._queued_seconds
        for name in names:
            task = job.graph.task(name)
            workload = task.workload
            candidates = self.mhep.devices_for(workload)
            if not candidates:
                if not job.done.triggered:
                    job.done.fail(RuntimeError("no online device"))
                continue
            if self.policy == "eft":
                best = best_time = best_finish = None
                for device in candidates:
                    exec_time = device.model.execution_time(task.work_gop, workload)
                    finish = backlog.get(device, 0.0) + exec_time
                    if best is None or finish < best_finish:
                        best, best_time, best_finish = device, exec_time, finish
            else:
                if self.policy == "round-robin":
                    best = candidates[self._rr_counter % len(candidates)]
                    self._rr_counter += 1
                else:
                    best = max(candidates,
                               key=lambda d: d.model.effective_gops(workload))
                best_time = best.model.execution_time(task.work_gop, workload)
            backlog[best] = backlog.get(best, 0.0) + best_time
            run = _Run(job, task, best, best_time, sim.now)
            best.resource.acquire(run, self._start, job.priority)


def burst():
    """Mixed jobs: single tasks of every class and a DAG per round."""
    jobs = []
    for i in range(5):
        for name, gops, workload in [
            ("dnn", 40.0, WorkloadClass.DNN),
            ("vision", 8.0, WorkloadClass.VISION),
            ("signal", 10.0, WorkloadClass.SIGNAL),
            ("control", 1.5, WorkloadClass.CONTROL),
        ]:
            jobs.append(TaskGraph.chain(f"{name}-{i}", [
                Task(f"{name}-{i}-t", gops, workload)
            ]))
        dag = TaskGraph(f"dag-{i}")
        for name, gops, workload in [
            ("a", 20.0, WorkloadClass.VISION),
            ("b", 30.0, WorkloadClass.DNN),
            ("c", 30.0, WorkloadClass.DNN),
            ("d", 5.0, WorkloadClass.SIGNAL),
        ]:
            dag.add_task(Task(f"{name}-{i}", gops, workload))
        for producer, consumer in [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]:
            dag.add_edge(f"{producer}-{i}", f"{consumer}-{i}")
        jobs.append(dag)
    return jobs


def twin():
    """A CPU equal to the i7 in all but name: a tie for every task."""
    return replace(catalog.intel_i7_6700(), name="i7 twin")


def drive(dsf_class, policy):
    """A burst resubmitted every second while a twin CPU and a phone leave
    and join."""
    sim = Simulator()
    mhep = MHEP(sim)
    mhep.register(catalog.intel_i7_6700())
    mhep.register(catalog.jetson_tx2_maxp())
    mhep.register(twin())
    mhep.register(catalog.intel_mncs())
    dsf = dsf_class(sim, mhep, policy=policy)
    jobs = burst()
    done = []

    def submitter(sim):
        for second in range(7):
            if second == 1:
                mhep.unregister("i7 twin")
            if second == 2:
                mhep.register(catalog.passenger_phone(), level=SECOND_LEVEL)
            if second == 4:
                mhep.register(twin())  # back in its first slot
            for priority, graph in enumerate(jobs):
                done.append(dsf.submit(graph, priority=priority % 3))
            yield sim.timeout(0.5)
            if second == 3:
                mhep.unregister("Passenger phone")
            yield sim.timeout(0.5)

    sim.process(submitter(sim))
    sim.run()
    results = [
        (event.value.graph_name, event.value.task_devices,
         event.value.task_finish, event.value.finished_at)
        for event in done
    ]
    devices = {device: (d.tasks_completed, d.busy_seconds)
               for device, d in mhep._devices.items()}
    return results, devices, sim.events_fired, dsf.energy.busy_joules()


@pytest.mark.parametrize("policy", DSF.POLICIES)
def test_plan_picks_equal_picks_timed_at_every_dispatch(policy):
    got = drive(DSF, policy)
    assert got == drive(OracleDSF, policy)
    _results, devices, _fired, _energy = got
    if policy == "fastest":
        # The twin ties the CPU it copies; ties go to the first listed.
        assert devices["i7 twin"][0] == 0
    else:
        # The run spreads work over the twin and the phone while they are in.
        assert devices["i7 twin"][0] > 0 and devices["Passenger phone"][0] > 0


def platform():
    sim = Simulator()
    mhep = MHEP(sim)
    mhep.register(catalog.jetson_tx2_maxp())
    mhep.register(catalog.intel_i7_6700())
    return sim, mhep, DSF(sim, mhep)


def dnn(name, gops=99.75):
    return Task(name, gops, WorkloadClass.DNN)


def test_a_device_unregistered_between_submits_gets_no_further_task():
    sim, mhep, dsf = platform()
    graph = TaskGraph.chain("job", [dnn("t")])
    first = dsf.submit(graph)
    sim.run()
    assert first.value.task_devices == {"t": GPU}
    mhep.unregister(GPU)
    second = dsf.submit(graph)
    sim.run()
    assert second.value.task_devices == {"t": CPU}


def test_a_device_unregistered_mid_job_gets_no_further_task():
    sim, mhep, dsf = platform()
    done = dsf.submit(TaskGraph.chain("chain", [dnn("first"), dnn("second")]))
    sim.run(until=0.5)  # "first" runs on the GPU until t=1.0
    mhep.unregister(GPU)
    sim.run()
    assert done.value.task_devices == {"first": GPU, "second": CPU}


def test_a_device_registered_mid_job_is_a_candidate_for_the_rest():
    sim = Simulator()
    mhep = MHEP(sim)
    mhep.register(catalog.intel_i7_6700())
    dsf = DSF(sim, mhep)
    done = dsf.submit(TaskGraph.chain("chain", [dnn("first"), dnn("second")]))
    sim.run(until=0.1)
    mhep.register(catalog.jetson_tx2_maxp())
    sim.run()
    assert done.value.task_devices == {"first": CPU, "second": GPU}


def test_a_graph_changed_after_its_first_submit_gets_a_new_plan():
    sim, mhep, dsf = platform()
    graph = TaskGraph.chain("job", [dnn("a")])
    dsf.submit(graph)
    sim.run()
    graph.add_task(Task("b", 1.5, WorkloadClass.CONTROL))
    graph.add_edge("a", "b")
    done = dsf.submit(graph)
    sim.run()
    assert done.value.task_devices == {"a": GPU, "b": CPU}
    assert done.value.task_finish["b"] > done.value.task_finish["a"]
    # A new root is dispatched at submit.
    graph.add_task(dnn("c"))
    done = dsf.submit(graph)
    sim.run()
    assert set(done.value.task_devices) == {"a", "b", "c"}


def test_a_plan_times_each_task_once_per_device(monkeypatch):
    calls = []
    real = ProcessorModel.execution_time

    def counting(self, work_gop, workload, slowdown=1.0):
        calls.append(self.name)
        return real(self, work_gop, workload, slowdown)

    monkeypatch.setattr(ProcessorModel, "execution_time", counting)
    sim, mhep, dsf = platform()
    graph = TaskGraph.chain("job", [dnn("a"), dnn("b")])
    for _ in range(10):
        dsf.submit(graph)
    sim.run()
    assert sorted(calls) == sorted([GPU, CPU] * 2)
    mhep.unregister(CPU)
    dsf.submit(graph)
    sim.run()
    assert calls[4:] == [GPU, GPU]
