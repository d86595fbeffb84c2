"""Tests for mHEP device management and DSF scheduling."""

from dataclasses import replace

import pytest

from repro.fleet import FleetConfig, run_inline
from repro.hw import WorkloadClass, catalog
from repro.obs import Collector
from repro.offload import Task, TaskGraph
from repro.sim import Simulator
from repro.vcu import DSF, FIRST_LEVEL, MHEP, SECOND_LEVEL


def platform():
    sim = Simulator()
    mhep = MHEP(sim)
    mhep.register(catalog.intel_i7_6700(), level=FIRST_LEVEL)
    mhep.register(catalog.jetson_tx2_maxp(), level=FIRST_LEVEL)
    return sim, mhep, DSF(sim, mhep)


def dnn_job(name="job", gops=10.0):
    return TaskGraph.chain(name, [Task(f"{name}-t", gops, WorkloadClass.DNN)])


def test_register_levels_and_duplicates():
    sim = Simulator()
    mhep = MHEP(sim)
    mhep.register(catalog.intel_mncs(), level=FIRST_LEVEL)
    with pytest.raises(ValueError):
        mhep.register(catalog.intel_mncs())
    with pytest.raises(ValueError):
        mhep.register(catalog.passenger_phone(), level=3)


def test_unregister_marks_offline():
    sim = Simulator()
    mhep = MHEP(sim)
    mhep.register(catalog.passenger_phone(), level=SECOND_LEVEL)
    assert len(mhep.online_devices) == 1
    mhep.unregister("Passenger phone")
    assert mhep.online_devices == []
    with pytest.raises(KeyError):
        mhep.unregister("Passenger phone")


def test_devices_for_workload_filters_capability():
    sim, mhep, _dsf = platform()
    dnn = {d.name for d in mhep.devices_for(WorkloadClass.DNN)}
    assert dnn == {"Intel i7-6700", "Jetson TX2 Max-P"}


def test_profiles_expose_dynamic_state():
    sim, mhep, dsf = platform()
    profiles = mhep.profiles()
    assert profiles["Intel i7-6700"]["queue_length"] == 0
    assert profiles["Jetson TX2 Max-P"]["peak_gops"] == 1330.0


def test_dsf_records_a_task_as_it_completes():
    collector = Collector()
    sim = Simulator(obs=collector)
    mhep = MHEP(sim)
    mhep.register(catalog.jetson_tx2_maxp(), level=FIRST_LEVEL)
    dsf = DSF(sim, mhep)
    seen = {}

    def reader(sim):
        yield dsf.submit(dnn_job(gops=99.75))
        # Still inside run(): the task's series are already recorded.
        seen.update(collector.snapshot())

    sim.process(reader(sim))
    sim.run()
    device = "{device=Jetson TX2 Max-P}"
    assert seen["counters"]["vcu.tasks_completed" + device] == 1.0
    assert seen["counters"]["vcu.task_gops" + device] == 99.75
    assert seen["histograms"]["vcu.task_exec_s" + device]["count"] == 1


def test_dsf_runs_job_and_records_latency():
    sim, mhep, dsf = platform()
    proc = dsf.submit(dnn_job(gops=99.75))  # exactly 1 s on the TX2 Max-P
    sim.run()
    result = proc.value
    # The GPU is the fastest DNN device: 99.75 / (1330 * 0.075) = 1.0 s.
    assert result.latency_s == pytest.approx(1.0)
    assert result.task_devices["job-t"] == "Jetson TX2 Max-P"


def test_dsf_respects_dependencies():
    sim, mhep, dsf = platform()
    graph = TaskGraph("dag")
    graph.add_task(Task("a", 99.75, WorkloadClass.DNN))
    graph.add_task(Task("b", 99.75, WorkloadClass.DNN))
    graph.add_edge("a", "b")
    proc = dsf.submit(graph)
    sim.run()
    result = proc.value
    assert result.task_finish["b"] > result.task_finish["a"]
    assert result.latency_s == pytest.approx(2.0)


def test_dsf_spreads_parallel_tasks_across_devices():
    sim, mhep, dsf = platform()
    graph = TaskGraph("parallel")
    for i in range(2):
        graph.add_task(Task(f"t{i}", 50.0, WorkloadClass.DNN))
    proc = dsf.submit(graph)
    sim.run()
    devices = set(proc.value.task_devices.values())
    # With the GPU busy, the second task should land on the CPU.
    assert len(devices) == 2


def test_dsf_queues_when_single_device():
    sim = Simulator()
    mhep = MHEP(sim)
    mhep.register(catalog.jetson_tx2_maxp())
    dsf = DSF(sim, mhep)
    p1 = dsf.submit(dnn_job("j1", gops=99.75))
    p2 = dsf.submit(dnn_job("j2", gops=99.75))
    sim.run()
    finishes = sorted([p1.value.finished_at, p2.value.finished_at])
    assert finishes == pytest.approx([1.0, 2.0])


def test_dsf_no_capable_device_fails_job():
    sim = Simulator()
    mhep = MHEP(sim)
    mhep.register(catalog.jetson_tx2_maxp())  # GPUs can't run CONTROL... they can barely
    dsf = DSF(sim, mhep)
    # ASIC supports nothing but DNN-ish classes; craft an impossible task by
    # removing all devices.
    mhep.unregister("Jetson TX2 Max-P")
    proc = dsf.submit(dnn_job())
    sim.run()
    assert proc.triggered
    with pytest.raises(RuntimeError, match="no online device supports"):
        _ = proc.value


def test_dsf_energy_accounting():
    sim, mhep, dsf = platform()
    dsf.submit(dnn_job(gops=99.75))
    sim.run()
    # 1 s on the TX2 Max-P at 15 W.
    assert dsf.energy.busy_joules("Jetson TX2 Max-P") == pytest.approx(15.0)


def test_dsf_device_utilization_tracked():
    sim, mhep, dsf = platform()
    dsf.submit(dnn_job(gops=99.75))
    sim.run()
    gpu = mhep.device("Jetson TX2 Max-P")
    assert gpu.busy_seconds == pytest.approx(1.0)
    assert gpu.tasks_completed == 1
    assert gpu.utilization(sim.now) == pytest.approx(1.0)


def test_second_hep_join_speeds_up_backlog():
    """Plug-and-play: a passenger phone relieves a weak on-board controller."""

    def run(with_phone: bool) -> float:
        sim = Simulator()
        mhep = MHEP(sim)
        mhep.register(catalog.onboard_controller())
        if with_phone:
            mhep.register(catalog.passenger_phone(), level=SECOND_LEVEL)
        dsf = DSF(sim, mhep)
        procs = [dsf.submit(dnn_job(f"j{i}", gops=20.0)) for i in range(6)]
        sim.run()
        return max(p.value.finished_at for p in procs)

    assert run(with_phone=True) < run(with_phone=False)


def diamond(c_workload=WorkloadClass.DNN):
    """a -> {b, c} -> d, with c's workload class chosen by the caller."""
    graph = TaskGraph("diamond")
    for name, gops, workload in [
        ("a", 99.75, WorkloadClass.DNN),
        ("b", 50.0, WorkloadClass.DNN),
        ("c", 50.0, c_workload),
        ("d", 99.75, WorkloadClass.DNN),
    ]:
        graph.add_task(Task(name, gops, workload))
    for producer, consumer in [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]:
        graph.add_edge(producer, consumer)
    return graph


def test_one_task_job_fires_one_kernel_entry():
    """An unwatched job fires only its task's ``Timeout``: the dispatch and
    the grant run inside ``submit`` and ``done`` is settled in place."""
    sim, _mhep, dsf = platform()
    trace = sim.attach_trace(keep=True)
    done = dsf.submit(dnn_job(gops=99.75))
    sim.run()
    trace.fold()
    assert trace.kept[1] == ["Timeout|\n"]
    assert done.processed and done.value.finished_at == 1.0


def test_watched_job_fires_two_kernel_entries():
    """A job a process waits on adds its ``done`` event to the timeout."""
    sim, _mhep, dsf = platform()
    trace = sim.attach_trace(keep=True)
    seen = []

    def waiter(sim):
        result = yield dsf.submit(dnn_job(gops=99.75))
        seen.append((sim.now, result.finished_at))

    sim.process(waiter(sim), name="waiter")
    sim.run()
    trace.fold()
    assert list(zip(*trace.kept)) == [
        (0.0, "Event|\n"),  # the waiter's start, which submits the job
        (1.0, "Timeout|\n"),  # the task
        (1.0, "Event|\n"),  # ``done``
        (1.0, "Process|waiter\n"),
    ]
    assert seen == [(1.0, 1.0)]


def test_a_later_yield_on_a_settled_job_gets_its_result_then():
    sim, _mhep, dsf = platform()
    done = dsf.submit(dnn_job(gops=99.75))
    seen = []

    def late(sim):
        yield sim.timeout(3.0)
        assert done.processed
        result = yield done
        seen.append((sim.now, result.task_finish))

    sim.process(late(sim))
    sim.run()
    assert seen == [(3.0, {"job-t": 1.0})]


def test_second_task_on_a_busy_device_starts_at_the_first_ones_finish():
    collector = Collector()
    sim = Simulator(obs=collector)
    mhep = MHEP(sim)
    mhep.register(catalog.jetson_tx2_maxp())
    dsf = DSF(sim, mhep)
    trace = sim.attach_trace(keep=True)
    first = dsf.submit(dnn_job("j1", gops=99.75))
    second = dsf.submit(dnn_job("j2", gops=99.75))
    assert mhep.device("Jetson TX2 Max-P").resource.queue_length == 1
    sim.run()
    trace.fold()
    assert first.value.finished_at == 1.0
    assert second.value.finished_at == 2.0
    # The first task's release started the second's timeout in its entry.
    assert list(zip(*trace.kept)) == [(1.0, "Timeout|\n"), (2.0, "Timeout|\n")]
    waits = collector.snapshot()["histograms"]["vcu.queue_wait_s{device=Jetson TX2 Max-P}"]
    assert waits["sum"] == 1.0


def test_dsf_fans_a_diamond_out_and_in():
    sim, _mhep, dsf = platform()
    job = dsf.submit(diamond())
    sim.run()
    result = job.value
    # The placements and finish times a process per task produced.
    assert result.task_devices == {
        "a": "Jetson TX2 Max-P",
        "b": "Jetson TX2 Max-P",
        "c": "Intel i7-6700",
        "d": "Jetson TX2 Max-P",
    }
    assert result.task_finish == {
        "a": 1.0,
        "b": 1.5012531328320802,
        "c": 1.6761325219743068,
        "d": 2.676132521974307,
    }
    assert result.finished_at == result.task_finish["d"]


def test_dispatch_failure_inside_a_dag_fails_the_job():
    collector = Collector()
    sim = Simulator(obs=collector)
    mhep = MHEP(sim)
    for model in (catalog.intel_i7_6700(), catalog.jetson_tx2_maxp()):
        # Neither device runs IO work, so c cannot be dispatched.
        mhep.register(replace(model, efficiency={WorkloadClass.IO: 0.0}))
    dsf = DSF(sim, mhep)
    job = dsf.submit(diamond(c_workload=WorkloadClass.IO))
    sim.run()
    with pytest.raises(RuntimeError, match="no online device supports workload 'io'"):
        _ = job.value
    assert collector.snapshot()["counters"]["vcu.dispatch_failures"] == 1.0
    # a and b ran; d, waiting on c, never reached a device.
    assert sum(device.tasks_completed for device in mhep.online_devices) == 2
    for device in mhep.online_devices:
        assert device.resource.count == 0
        assert device.resource.queue_length == 0


def test_queue_wait_is_never_negative():
    # A task's wait runs from its dispatch to its device's grant; an
    # immediate grant reads exactly 0, not a float residue of
    # ``finish - dispatch - exec_time``.
    config = FleetConfig(
        seed=1, vehicles=128, partitions=1, duration_s=10.0, workload="skewed"
    )
    histograms = run_inline(config).metrics["histograms"]
    waits = [
        series for name, series in histograms.items()
        if name.startswith("vcu.queue_wait_s")
    ]
    assert waits
    assert min(series["min"] for series in waits) == 0.0
