"""The benchmark's workloads: inputs from a seed, one run, its checks.

Each workload turns the benchmark seed into the program's inputs (a
``FleetConfig`` or numpy generators), runs one unit of work with
:meth:`run`, and checks that run's outputs against a reference made
outside the timed region.  ``repro`` is imported inside methods only, so
importing this module costs nothing and the set-up probe can time the
imports themselves.

* ``fleet-skewed``: 128 vehicles of the ``skewed`` style on one
  in-process partition (``run_inline``, calendar scheduler).  Heavy
  per-vehicle compute and no pipes: a transport change reads "no
  change" here.
* ``fleet-procs``: 32 ``uniform`` vehicles on 2 worker processes through
  ``FleetCoordinator``.  The only workload paying for spawn, pickling,
  pipes, the journal, routing and the metric merge.
* ``paper-cli``: the paper's artifacts for one vehicle, as
  ``python -m repro`` makes them: Figure 2 (six 300 s streams), Table I
  (detector training included) and the full-platform drive with the
  distributed executor, OBD->DDI and a Collector exporting JSON.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS_PATH = os.path.join(HERE, "pins.json")


def no_pause(step: str) -> None:
    """The default between-steps hook of :meth:`run`: nothing."""


@dataclass
class Outcome:
    """What one run produced, reduced to what the benchmark checks."""

    #: Output fingerprint compared against the reference and across runs.
    outputs: dict[str, Any]
    #: Host seconds of each timed step of the run, in order.
    steps_s: dict[str, float]
    #: Simulation-kernel events the run fired, where the kernel is visible.
    events_fired: int = 0
    #: ``FleetStats`` of a fleet run.
    stats: Any = None
    #: Per step, wall time to nominal-host seconds (``hostspeed.scale``).
    scales: dict[str, float] = field(default_factory=dict)
    #: Per-process profile summaries of a traced run.
    profiles: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.steps_s.values())

    def nominal_s(self, *steps: str) -> float:
        """Nominal-host seconds of ``steps`` (default: every step)."""
        return sum(self.steps_s[k] * self.scales[k]
                   for k in (steps or self.steps_s) if k in self.steps_s)


@dataclass
class Tally:
    """Checks attempted and failed; each check is one operation."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def compare(tally: Tally, got: dict[str, Any], want: dict[str, Any],
            what: str) -> None:
    """One check per expected output key."""
    for key in sorted(want):
        tally.check(got.get(key) == want[key], f"{what}: {key} differs")


# -- fleets ----------------------------------------------------------------


class FleetWorkload:
    """A fleet run checked hash for hash against ``run_single_process``."""

    name = ""
    vehicles = 0
    duration_s = 0.0
    partitions = 1
    style = "uniform"
    #: Worker processes a run spreads over (0: the run stays in-process).
    worker_processes = 0

    def __init__(self, seed: int, workdir: str):
        from repro.fleet import FleetConfig

        self.config = FleetConfig(
            seed=seed,
            vehicles=self.vehicles,
            partitions=self.partitions,
            duration_s=self.duration_s,
            workload=self.style,
        )

    @property
    def vehicle_sim_s(self) -> float:
        return self.vehicles * self.duration_s

    def reference(self) -> dict[str, Any]:
        from repro.fleet import run_single_process

        return self._outputs(run_single_process(self.config))

    @staticmethod
    def _outputs(result) -> dict[str, Any]:
        return {f"vehicle-{v}": h for v, h in result.vehicle_hashes.items()}

    def _fleet_run(self):
        raise NotImplementedError

    def run(self, pause: Callable[[str], None] = no_pause) -> Outcome:
        start = time.perf_counter()
        result = self._fleet_run()
        wall_s = time.perf_counter() - start
        pause("run")
        return Outcome(
            outputs=self._outputs(result),
            steps_s={"run": wall_s},
            events_fired=result.stats.events_fired,
            stats=result.stats,
        )

    def check(self, tally: Tally, outcome: Outcome,
              reference: dict[str, Any]) -> None:
        """One check per vehicle hash and per partition barrier.

        A barrier that needed a straggler retry or a respawn is a failed
        operation even when the hashes come out right.
        """
        compare(tally, outcome.outputs, reference, self.name)
        stats = outcome.stats
        barriers = stats.rounds * self.partitions
        retried = min(barriers, stats.stragglers + stats.respawns)
        for index in range(barriers):
            tally.check(index >= retried, f"{self.name}: barrier retried")

    def close(self) -> None:
        pass


class FleetSkewed(FleetWorkload):
    name = "fleet-skewed"
    vehicles = 128
    duration_s = 10.0
    style = "skewed"

    def _fleet_run(self):
        from repro.fleet import run_inline

        return run_inline(self.config)

    def setup(self) -> None:
        """Everything ``run_inline`` builds before the first event."""
        from repro.fleet import PartitionRuntime

        PartitionRuntime(self.config.spec_for(0).disarmed()).launch()


class FleetProcs(FleetWorkload):
    name = "fleet-procs"
    vehicles = 32
    duration_s = 60.0
    partitions = 2
    worker_processes = 2

    def _fleet_run(self):
        from repro.fleet import FleetCoordinator

        with FleetCoordinator(self.config) as coordinator:
            return coordinator.run()

    def setup(self) -> None:
        """Spawn every worker and wait for its ``Hello``, as ``run`` does."""
        from repro.fleet import Hello, spawn_worker

        handles = [
            spawn_worker(self.config.spec_for(p))
            for p in range(self.config.partitions)
        ]
        try:
            for handle in handles:
                hello = handle.pipe.recv(self.config.barrier_deadline_s)
                if not isinstance(hello, Hello):
                    raise RuntimeError(f"worker sent {hello!r} before Hello")
        finally:
            for handle in handles:
                handle.terminate()


# -- the paper's artifacts ---------------------------------------------------

FIG2_SPEEDS_MPH = (0, 35, 70)
FIG2_STREAM_S = 300.0
DRIVE_S = 180.0
#: Seed offsets that make benchmark seed 0 the committed artifacts' seeds
#: (``fig2_loss``: generator 42; ``table1_algorithms``: generator 0).
FIG2_SEED_BASE = 42


class PaperCli:
    """Figure 2, Table I and the full-platform drive, one vehicle."""

    name = "paper-cli"
    worker_processes = 0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self._runs = 0

    @property
    def vehicle_sim_s(self) -> float:
        return len(FIG2_SPEEDS_MPH) * 2 * FIG2_STREAM_S + DRIVE_S

    # The three steps -----------------------------------------------------

    def fig2(self) -> dict[str, Any]:
        import numpy as np
        from repro.net import VIDEO_720P, VIDEO_1080P, run_drive_stream

        out = {}
        for speed in FIG2_SPEEDS_MPH:
            for profile in (VIDEO_720P, VIDEO_1080P):
                result = run_drive_stream(
                    profile, speed, duration_s=FIG2_STREAM_S,
                    rng=np.random.default_rng(FIG2_SEED_BASE + self.seed),
                )
                label = ("Static" if speed == 0 else f"{speed}MPH")
                out[f"fig2 {label} {profile.name}"] = [
                    result.packet_loss_rate, result.frame_loss_rate,
                    result.handoffs,
                ]
        return out

    def table1(self) -> dict[str, Any]:
        import numpy as np
        from repro.vision import table1_rows

        return {
            f"table1 {row.name}": [row.latency_ms, row.ops]
            for row in table1_rows(rng=np.random.default_rng(self.seed))
        }

    def build_drive(self, ddi_root: str):
        """The ``examples/full_drive.py`` scenario, executed distributed."""
        from repro.apps import make_adas_service, make_amber_service
        from repro.hw import catalog
        from repro.obs import Collector
        from repro.scenario import DriveScenario
        from repro.topology import SpeedProfile, build_default_world

        collector = Collector()
        world = build_default_world(
            speed_mps=10.0,
            edge_count=3,
            edge_spacing_m=600.0,
            vehicle_processors=[catalog.intel_i7_6700(), catalog.intel_mncs()],
        )
        for edge in world.edges:
            edge.coverage_radius_m = 220.0
        scenario = DriveScenario(
            world=world, seed=self.seed, ddi_root=ddi_root,
            execute_distributed=True, observe=collector,
        )
        scenario.add_service(make_adas_service(deadline_s=0.6), period_s=1.0)
        scenario.add_service(make_amber_service(deadline_s=3.0), period_s=5.0)
        scenario.attach_obd(SpeedProfile([(0.0, 10.0)]))
        return scenario, collector

    def drive(self, run_dir: str) -> tuple[dict[str, Any], int]:
        scenario, collector = self.build_drive(os.path.join(run_dir, "ddi"))
        report = scenario.run(duration_s=DRIVE_S)
        metrics_path, trace_path = collector.write(os.path.join(run_dir, "obs"))
        outputs = {"drive report": digest(report_json(report))}
        for label, path in (("metrics", metrics_path), ("trace", trace_path)):
            with open(path, encoding="utf-8") as fh:
                outputs[f"drive {label}.json"] = digest(fh.read())
        return outputs, scenario.sim.events_fired

    # The workload interface -------------------------------------------------

    def setup(self) -> None:
        """Imports of all three steps, plus building the drive."""
        import repro.net  # noqa: F401
        import repro.vision  # noqa: F401

        self.build_drive(os.path.join(self.workdir, "setup-ddi"))

    def reference(self) -> dict[str, Any]:
        """Pinned outputs for this seed; empty when the seed has no pin.

        At seed 0 Figure 2 and Table I come from the committed result
        files instead.  With no pin the first run becomes the reference,
        so later runs (and the traced run) are still checked against it.
        """
        with open(PINS_PATH, encoding="utf-8") as fh:
            pinned = json.load(fh)["paper-cli"].get(str(self.seed), {})
        if self.seed == 0:
            pinned.update(committed_paper_outputs(ROOT))
        return pinned

    def run(self, pause: Callable[[str], None] = no_pause) -> Outcome:
        """Fig 2, Table I, the drive; ``pause`` runs untimed after each."""
        self._runs += 1
        run_dir = os.path.join(self.workdir, f"paper-cli-{self._runs}")
        steps: dict[str, float] = {}

        def step(name, function, *args):
            start = time.perf_counter()
            result = function(*args)
            steps[name] = time.perf_counter() - start
            pause(name)
            return result

        outputs = step("fig2", self.fig2)
        outputs.update(step("table1", self.table1))
        drive_outputs, events = step("drive", self.drive, run_dir)
        outputs.update(drive_outputs)
        shutil.rmtree(run_dir)
        return Outcome(outputs=outputs, steps_s=steps, events_fired=events)

    def check(self, tally: Tally, outcome: Outcome,
              reference: dict[str, Any]) -> None:
        compare(tally, outcome.outputs, reference, self.name)

    def close(self) -> None:
        shutil.rmtree(os.path.join(self.workdir, "setup-ddi"),
                      ignore_errors=True)


def report_json(report) -> str:
    """Canonical JSON of a drive's ``ScenarioReport``."""
    services = {
        name: {
            "invocations": svc.invocations,
            "deadline_misses": svc.deadline_misses,
            "hung_ticks": svc.hung_ticks,
            "latency": svc.latency.samples,
            "executed_latency": svc.executed_latency.samples,
            "pipeline_times": svc.pipeline_timeline.times,
            "pipeline_values": svc.pipeline_timeline.values,
        }
        for name, svc in report.services.items()
    }
    return json.dumps(
        {
            "duration_s": report.duration_s,
            "vehicle_energy_j": report.vehicle_energy_j,
            "ddi_records": report.ddi_records,
            "ddi_cache_hit_rate": report.ddi_cache_hit_rate,
            "services": services,
        },
        sort_keys=True,
    )


def committed_paper_outputs(root: str) -> dict[str, Any]:
    """Figure 2 and Table I as committed under ``benchmarks/results``.

    These were made at benchmark seed 0, so the seed-0 pin must equal
    them value for value.
    """
    results = os.path.join(root, "benchmarks", "results")
    out: dict[str, Any] = {}
    with open(os.path.join(results, "fig2_loss.json"), encoding="utf-8") as fh:
        for row in json.load(fh)["rows"]:
            out[f"fig2 {row['scenario']}"] = [
                row["packet"], row["frame"], row["handoffs"],
            ]
    with open(os.path.join(results, "table1_algorithms.json"),
              encoding="utf-8") as fh:
        for row in json.load(fh)["rows"]:
            out[f"table1 {row['algorithm']}"] = [row["measured_ms"], row["ops"]]
    return out


WORKLOADS = {w.name: w for w in (FleetSkewed, FleetProcs, PaperCli)}
