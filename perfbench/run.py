#!/usr/bin/env python3
"""The repository benchmark: fleet capacity, fleet transport, paper artifacts.

Run from the repository root:

    python3 perfbench/run.py --workload fleet-skewed --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, measured with nothing installed in the program;
``--trace 1`` reports the per-layer metrics from runs made under a
profiler, alternated with untraced runs for the overhead ratio.

The parent process pins the BLAS/OpenMP pools to one thread and glibc's
mmap threshold (``PINNED_ENV``).  It times the set-up in several fresh
interpreters, makes the reference outputs in another and measures in a
last one, so peak RSS belongs to the measured runs and their fleet
workers alone.  Every child runs in its own session and is killed with
its process group if it outlives the deadline.
"""

import time

_STARTED = time.perf_counter()  # a set-up probe's clock starts here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("fleet-skewed", "fleet-procs", "paper-cli")
#: Every child runs with one-thread BLAS/OpenMP pools, so Table I's
#: matmuls do not compete with fleet workers for the host's two cores,
#: and with glibc's mmap threshold fixed at its initial 128 KiB: left
#: dynamic, it drifts with allocation history and moved paper-cli's
#: peak RSS between 176 and 210 MB from run to run.
PINNED_ENV = {
    **dict.fromkeys((
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    ), "1"),
    "MALLOC_MMAP_THRESHOLD_": "131072",
}
SETUP_PROBES = 5
MIN_RUNS = 3
DEADLINE_S = 170.0
REFERENCE_FILE = "reference.json"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("probe", "reference", "measure"),
                        default=None, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative (numpy seeds are)")
    return args


# -- child roles -------------------------------------------------------------


def calibration_for(workload):
    """The host-speed calibration matching how the workload uses the CPUs."""
    from hostspeed import calibrate, calibrate_each_cpu

    return calibrate_each_cpu if workload.worker_processes > 1 else calibrate


def probe(args) -> dict:
    """Wall seconds of imports plus construction up to the first event.

    The parent calibrates before and after this process, so the probe
    itself imports nothing the set-up would otherwise pay for.
    """
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    try:
        workload.setup()
        setup_s = time.perf_counter() - _STARTED
    finally:
        workload.close()
    return {"setup_s": setup_s}


def write_reference(args) -> dict:
    """Write the expected outputs to ``REFERENCE_FILE`` in the workdir.

    A process of its own makes them, so the fleets' reference run does
    not count toward the measuring process's peak RSS, nor sit in the
    heap its fleet workers inherit.
    """
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    try:
        reference = workload.reference()
    finally:
        workload.close()
    with open(os.path.join(args.workdir, REFERENCE_FILE), "w",
              encoding="utf-8") as fh:
        json.dump(reference, fh)
    return {}


def blas_config() -> dict:
    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "env": {var: os.environ.get(var) for var in PINNED_ENV},
    }


def obs_patches(spans):
    """Spans around the metric merge and the JSON export."""
    import repro.fleet.coordinator as coordinator
    import repro.obs as obs
    import repro.obs.metrics as metrics
    from layers import timed

    patches = [
        (obs.Collector, "write", timed(spans, "export", obs.Collector.write)),
    ]
    for module in (metrics, obs, coordinator):
        for name in ("merge_many", "mergeable_view"):
            if name in vars(module):
                patches.append(
                    (module, name, timed(spans, "merge", getattr(module, name)))
                )
    return patches


def traced_run(workload, spans, tap, profiles_dir):
    """One run under the profiler, workers included; wrappers removed after."""
    import cProfile

    import repro.fleet.worker as fleet_worker
    from layers import ProfiledWorker, installed, summarize

    worker = ProfiledWorker(fleet_worker.partition_worker_main, profiles_dir)
    patches = obs_patches(spans) + tap.patches() + [
        (fleet_worker, "partition_worker_main", worker),
    ]
    profiler = cProfile.Profile()
    with installed(patches):
        start = time.perf_counter()
        profiler.enable()
        try:
            outcome = workload.run()
        finally:
            profiler.disable()
        wall_s = time.perf_counter() - start
    outcome.profiles = [summarize(profiler, wall_s)] + worker.collect()
    return outcome


def measure(args) -> dict:
    """Repeat the workload for ``--seconds``, checking every run against
    the outputs :func:`write_reference` left in the workdir.

    A calibration loop runs after every timed step, and each step's time
    is scaled by the calibrations on either side of it (see
    ``hostspeed``).  Traced runs are scaled as one step.
    """
    import gc
    import resource

    from hostspeed import scale
    from layers import COUNTED_CALLS, SELF_LAYERS, FleetTap, Spans, add_summaries, percentile
    from workloads import WORKLOADS, Tally, compare

    with open(os.path.join(args.workdir, REFERENCE_FILE),
              encoding="utf-8") as fh:
        reference = json.load(fh)
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    calibrate = calibration_for(workload)
    tally = Tally()
    untraced, traced, calibrations = [], [], []
    spans, tap = Spans(), FleetTap()
    profiles_dir = os.path.join(args.workdir, "profiles")
    os.makedirs(profiles_dir)
    min_runs = 1 if args.trace else MIN_RUNS

    def untraced_once():
        gc.collect()  # every run starts from the same heap
        scales = {}

        def pause(step):
            calibrations.append(calibrate())
            scales[step] = scale(*calibrations[-2:])

        outcome = workload.run(pause)
        outcome.scales = scales
        return outcome

    def traced_once():
        gc.collect()
        outcome = traced_run(workload, spans, tap, profiles_dir)
        calibrations.append(calibrate())
        outcome.scales = dict.fromkeys(
            outcome.steps_s, scale(*calibrations[-2:]))
        return outcome

    try:
        # A first run pays lazy imports and first-use costs: checked, not timed.
        warmup = workload.run()
        reference = reference or dict(warmup.outputs)
        workload.check(tally, warmup, reference)
        calibrations.append(calibrate())
        deadline = time.perf_counter() + args.seconds
        while len(untraced) < min_runs or time.perf_counter() < deadline:
            outcome = untraced_once()
            workload.check(tally, outcome, reference)
            untraced.append(outcome)
            if args.trace:
                traced_outcome = traced_once()
                workload.check(tally, traced_outcome, reference)
                compare(tally, traced_outcome.outputs, outcome.outputs,
                        "traced run vs untraced run")
                traced.append(traced_outcome)
    finally:
        workload.close()

    def median(values):
        return statistics.median(values) if values else 0.0

    def nominal_s(outcomes, *steps):
        """Median run (or step) time in nominal-host seconds."""
        return median([o.nominal_s(*steps) for o in outcomes])

    metrics = {}
    if not args.trace:
        peak_kb = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        metrics["vsim_per_wall"] = (
            workload.vehicle_sim_s / nominal_s(untraced), "veh.s/s")
        metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
    else:
        runs = len(traced)
        total = add_summaries(p for o in traced for p in o.profiles)
        for layer in SELF_LAYERS:
            metrics[f"{layer}.self_s"] = (total["self_s"][layer] / runs, "s")
        for name in COUNTED_CALLS:
            metrics[name] = (total["calls"][name] / runs, "count")
        stats = [o.stats for o in traced if o.stats is not None]
        round_ms = tap.round_ms()
        metrics.update({
            "sim.events_fired": (median([o.events_fired for o in traced]), "count"),
            "obs.merge_s": (spans.covered_s("merge") / runs, "s"),
            "obs.export_s": (spans.covered_s("export") / runs, "s"),
            "fleet.send_s": (tap.spans.covered_s("send") / runs, "s"),
            "fleet.recv_wait_s": (tap.spans.covered_s("recv") / runs, "s"),
            "fleet.coord_self_s": (tap.coordinator_self_s() / runs, "s"),
            "fleet.finish_merge_s": (tap.finish_merge_s() / runs, "s"),
            "fleet.worker_busy_s": (median([
                sum(s.partition_busy_s.values()) for s in stats]), "s"),
            "fleet.busy_spread_s": (median([
                s.busy_spread_s() for s in stats]), "s"),
            "fleet.rounds": (median([s.rounds for s in stats]), "count"),
            "fleet.envelopes_routed": (median([
                s.envelopes_routed for s in stats]), "count"),
            "fleet.round_ms_p50": (percentile(round_ms, 50), "ms"),
            "fleet.round_ms_p90": (percentile(round_ms, 90), "ms"),
            "trace.overhead_ratio": (
                nominal_s(traced) / nominal_s(untraced), "ratio"),
            "trace.profiled_s": (total["wall_s"] / runs, "s"),
            "trace.pipe_wait_s": (total["wait_s"] / runs, "s"),
            "host.calibration_s": (median(calibrations), "s"),
            "host.run_wall_s": (median([o.wall_s for o in untraced]), "s"),
            "cli.fig2_s": (nominal_s(untraced, "fig2"), "s"),
            "cli.table1_s": (nominal_s(untraced, "table1"), "s"),
            "cli.drive_s": (nominal_s(untraced, "drive"), "s"),
            "checks.failed_ops": (tally.failed / tally.attempted, "ratio"),
        })
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "notes": tally.notes,
        "blas": blas_config(),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


# -- the parent --------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_child(args, role: str, workdir: str, deadline: float) -> dict:
    """Run this script in ``role``; return the JSON on its last stdout line."""
    command = [
        sys.executable, os.path.abspath(__file__), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", workdir,
    ]
    child = subprocess.Popen(
        command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise SystemExit(f"perfbench: {role} run passed the deadline")
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)  # strays left in its group
        except ProcessLookupError:
            pass
    if child.returncode != 0:
        raise SystemExit(f"perfbench: {role} run exited {child.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


ROLES = {"probe": probe, "reference": write_reference, "measure": measure}


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, HERE)
    if args.role is not None:
        print(json.dumps(ROLES[args.role](args)))
        return 0

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no src/repro next to perfbench/; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)  # before numpy loads, for the calibration
    from hostspeed import scale
    from workloads import WORKLOADS

    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(workdir)
    try:
        setup_s = []
        if not args.trace:
            # Each probe is scaled by the calibrations on either side of it.
            calibrate = calibration_for(WORKLOADS[args.workload])
            calibrations = [calibrate()]
            for index in range(SETUP_PROBES):
                probe_dir = os.path.join(workdir, f"probe-{index}")
                os.makedirs(probe_dir)
                wall_s = run_child(args, "probe", probe_dir, deadline)["setup_s"]
                calibrations.append(calibrate())
                setup_s.append(wall_s * scale(*calibrations[-2:]))
        measure_dir = os.path.join(workdir, "measure")
        os.makedirs(measure_dir)
        run_child(args, "reference", measure_dir, deadline)
        result = run_child(args, "measure", measure_dir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    metrics = result["metrics"]
    if setup_s:
        metrics["setup_s"] = {"value": statistics.median(setup_s), "unit": "s"}
    print("blas: " + json.dumps(result["blas"], sort_keys=True))
    for note in result["notes"]:
        print("check failed: " + note)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
