"""TaskAccounting: batched per-device flushes equal per-task recording."""

from repro.hw import TaskAccounting
from repro.obs import Collector
from repro.sim import RngRegistry


def _tasks(seed, n):
    rng = RngRegistry(seed).stream("tasks")
    devices = ("gpu", "cpu", "fpga")
    return [
        (devices[int(rng.integers(3))], float(rng.exponential(0.02)),
         float(rng.exponential(0.05)), float(rng.uniform(0.1, 3.0)))
        for _ in range(n)
    ]


def _record_per_task(collector, tasks):
    """Per-task recording in a flush's order: devices sorted, each
    device's tasks in completion order."""
    for device in sorted({t[0] for t in tasks}):
        mine = [t for t in tasks if t[0] == device]
        for _, exec_s, _, _ in mine:
            collector.observe("vcu.task_exec_s", exec_s, device=device)
        for _, _, wait_s, _ in mine:
            collector.observe("vcu.queue_wait_s", wait_s, device=device)
        collector.count("vcu.tasks_completed", len(mine), device=device)
        collector.count("vcu.task_gops", sum(t[3] for t in mine), device=device)


def test_flushes_equal_per_task_recording_bit_for_bit():
    batched, per_task = Collector(trace=False), Collector(trace=False)
    accounting = TaskAccounting(prefix="vcu")
    pending = []
    for task in _tasks(seed=3, n=400):
        accounting.record(*task)
        pending.append(task)
        if len(pending) == 7:  # a flush per sim step, a few tasks each
            accounting.flush(batched)
            _record_per_task(per_task, pending)
            pending.clear()
    assert accounting.pending
    accounting.flush(batched)
    _record_per_task(per_task, pending)
    assert not accounting.pending
    assert batched.metrics_json() == per_task.metrics_json()


def test_a_flush_into_another_recorder_resolves_its_own_series():
    accounting = TaskAccounting(prefix="dsf")
    first, second = Collector(), Collector()
    accounting.record("gpu", 0.01, 0.0, 1.0)
    accounting.flush(first)
    accounting.record("gpu", 0.02, 0.0, 1.0)
    accounting.flush(second)
    for collector in (first, second):
        snap = collector.snapshot()
        assert snap["counters"]["dsf.tasks_completed{device=gpu}"] == 1.0
        assert snap["histograms"]["dsf.task_exec_s{device=gpu}"]["count"] == 1
