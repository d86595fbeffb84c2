"""Tests of the benchmark's own helpers.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import argparse
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _stat(self_s):
    return (1, 1, self_s, self_s, {})


def test_fold_by_subpackage():
    root = os.path.join(os.sep, "x", "src", "repro")
    stats = {
        (os.path.join(root, "sim", "core.py"), 1, "run"): _stat(1.0),
        (os.path.join(root, "sim", "queues.py"), 9, "push"): _stat(0.5),
        (os.path.join(root, "obs", "metrics.py"), 3, "observe"): _stat(2.0),
        (os.path.join(root, "scenario.py"), 5, "launch"): _stat(0.25),
        (os.path.join(root, "scenarios", "compiler.py"), 5, "f"): _stat(0.25),
        (os.path.join(root, "__init__.py"), 1, "<module>"): _stat(0.125),
        (os.path.join(os.sep, "usr", "lib", "json", "encoder.py"), 1, "e"): _stat(0.5),
        ("~", 0, "<built-in method builtins.sorted>"): _stat(0.75),
        (os.path.join(os.sep, "x", "src", "reproduce.py"), 1, "g"): _stat(0.0625),
    }
    folded = layers.fold(stats, root)
    assert set(folded) == set(layers.SELF_LAYERS)
    assert folded["sim"] == 1.5
    assert folded["obs"] == 2.0
    assert folded["scenario"] == 0.5
    assert folded["builtins"] == 0.75
    assert folded["other"] == 0.125 + 0.5 + 0.0625
    assert sum(folded.values()) == sum(s[2] for s in stats.values())


def test_pipe_wait_counts_only_c_calls_from_wait_frames():
    selectors = (os.path.join(os.sep, "lib", "selectors.py"), 1, "select")
    recv = (os.path.join(os.sep, "lib", "multiprocessing", "connection.py"), 1, "_recv")
    send = (os.path.join(os.sep, "lib", "multiprocessing", "connection.py"), 1, "_send")
    stats = {
        ("~", 0, "<method 'poll' of 'select.poll' objects>"):
            (1, 1, 2.0, 2.0, {selectors: (1, 1, 2.0, 2.0)}),
        ("~", 0, "<built-in method posix.read>"):
            (2, 2, 1.5, 1.5, {recv: (1, 1, 1.0, 1.0), send: (1, 1, 0.5, 0.5)}),
        # Python code in a wait frame is the frame's own work, not waiting.
        selectors: (1, 1, 0.25, 2.25, {}),
    }
    assert layers.pipe_wait_s(stats) == 3.0


def test_self_time_subtracts_covered_children_once():
    children = [(1.0, 3.0), (2.0, 4.0), (8.0, 12.0), (-1.0, 0.5)]
    # Covered inside (0, 10): [0, 0.5] + [1, 4] + [8, 10] = 5.5 s.
    assert layers.self_time_s((0.0, 10.0), children) == pytest.approx(4.5)
    assert layers.union_s([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert layers.self_time_s((0.0, 1.0), []) == 1.0


def test_add_summaries_sums_processes():
    one = {"self_s": {"sim": 1.0}, "calls": {"ddi.collect_calls": 2},
           "wall_s": 1.5, "wait_s": 0.0}
    two = {"self_s": {"sim": 0.5, "fleet": 0.25}, "calls": {},
           "wall_s": 1.0, "wait_s": 0.5}
    total = layers.add_summaries([one, two])
    assert total["self_s"]["sim"] == 1.5
    assert total["self_s"]["fleet"] == 0.25
    assert total["calls"]["ddi.collect_calls"] == 2
    assert total["wall_s"] == 2.5
    assert total["wait_s"] == 0.5


def test_percentile_nearest_rank():
    values = [float(v) for v in range(1, 11)]
    assert layers.percentile(values, 50) == 5.0
    assert layers.percentile(values, 90) == 9.0
    assert layers.percentile([], 90) == 0.0


class _Patched:
    def method(self):
        return "own"


def test_installed_restores_even_after_an_error():
    original = vars(_Patched)["method"]
    with pytest.raises(RuntimeError):
        with layers.installed([(_Patched, "method", lambda self: "patched")]):
            assert _Patched().method() == "patched"
            raise RuntimeError("boom")
    assert vars(_Patched)["method"] is original
    assert _Patched().method() == "own"


class _TinyProcs(workloads.FleetProcs):
    vehicles = 4
    duration_s = 4.0


class _TinySkewedWrongHash(workloads.FleetSkewed):
    vehicles = 4
    duration_s = 3.0

    def reference(self):
        expected = super().reference()
        expected["vehicle-0"] = "0" * 64
        return expected


def _args(tmp_path, workload, trace=0):
    """Arguments of a measuring child, with its reference already made."""
    os.makedirs(tmp_path, exist_ok=True)
    args = argparse.Namespace(
        workload=workload, seed=3, seconds=0.01, trace=trace,
        workdir=str(tmp_path),
    )
    run.write_reference(args)
    return args


def test_wrong_expected_hash_counts_as_failed_op(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "fleet-skewed", _TinySkewedWrongHash)
    result = run.measure(_args(tmp_path, "fleet-skewed"))
    runs = 1 + run.MIN_RUNS  # the warm-up run is checked too
    assert result["failed"] == runs
    assert result["attempted"] > result["failed"]
    assert result["metrics"]["vsim_per_wall"]["value"] > 0


def _declared(kind):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return {m["name"] for m in json.load(fh)[kind]}


def test_measure_reports_every_declared_metric(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "fleet-procs", _TinyProcs)
    untraced = run.measure(_args(tmp_path / "untraced", "fleet-procs"))
    assert set(untraced["metrics"]) == _declared("end_to_end") - {"setup_s"}
    traced = run.measure(_args(tmp_path / "traced", "fleet-procs", trace=1))
    assert set(traced["metrics"]) == _declared("per_layer")
    assert traced["failed"] == 0
    assert traced["metrics"]["fleet.rounds"]["value"] == 4
    self_s = sum(m["value"] for name, m in traced["metrics"].items()
                 if name.endswith(".self_s"))
    assert self_s == pytest.approx(
        traced["metrics"]["trace.profiled_s"]["value"], rel=0.05, abs=0.03)


def test_traced_run_profiles_workers_and_removes_wrappers(tmp_path):
    import repro.fleet.coordinator as coordinator
    import repro.fleet.worker as fleet_worker
    import repro.obs.metrics as metrics
    from repro.fleet import FleetCoordinator, PipeEndpoint
    from repro.obs import Collector

    originals = {
        "worker": fleet_worker.partition_worker_main,
        "send": vars(PipeEndpoint)["send"],
        "recv": vars(PipeEndpoint)["recv"],
        "run": vars(FleetCoordinator)["run"],
        "write": vars(Collector)["write"],
        "merge_many": coordinator.merge_many,
        "mergeable_view": metrics.mergeable_view,
    }
    workload = _TinyProcs(3, str(tmp_path))
    reference = workload.reference()
    spans, tap = layers.Spans(), layers.FleetTap()
    outcome = run.traced_run(workload, spans, tap, str(tmp_path))
    summaries = outcome.profiles

    assert outcome.outputs == reference
    # The coordinator plus one profile per worker, each folded in full
    # (up to the profiler's fixed start-up cost, a few ms on this tiny run).
    assert len(summaries) == 1 + workload.partitions
    for summary in summaries:
        assert sum(summary["self_s"].values()) == pytest.approx(
            summary["wall_s"], rel=0.05, abs=0.01)
    worker_sim_s = sum(s["self_s"]["sim"] for s in summaries[1:])
    assert worker_sim_s > 0
    # The coordinator mostly waits on its workers; that is not builtins work.
    assert summaries[0]["wait_s"] > summaries[0]["self_s"]["builtins"]
    assert spans.covered_s("merge") > 0
    assert len(tap.round_ms()) == 4
    assert tap.coordinator_self_s() > 0

    assert fleet_worker.partition_worker_main is originals["worker"]
    assert vars(PipeEndpoint)["send"] is originals["send"]
    assert vars(PipeEndpoint)["recv"] is originals["recv"]
    assert vars(FleetCoordinator)["run"] is originals["run"]
    assert vars(Collector)["write"] is originals["write"]
    assert coordinator.merge_many is originals["merge_many"]
    assert metrics.mergeable_view is originals["mergeable_view"]
    assert not os.listdir(tmp_path)
