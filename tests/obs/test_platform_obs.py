"""Platform-level observability: one collector across every subsystem.

Covers the single-wiring-point contract (``DriveScenario(observe=...)`` /
``Simulator(obs=...)``), byte-identical exports across identical-seed
runs plus an absolute digest of one observed drive's metrics JSON, and
non-perturbation (instrumentation must not change simulated results).
"""

import hashlib

import pytest

from repro.apps import make_adas_service
from repro.hw import catalog
from repro.obs import Collector, Summary
from repro.scenario import DriveScenario
from repro.sim import Simulator
from repro.topology import build_default_world


def _drive(observe=None):
    world = build_default_world(
        speed_mps=10.0, edge_count=2, edge_spacing_m=600.0,
        vehicle_processors=[catalog.intel_i7_6700(), catalog.intel_mncs()],
    )
    for edge in world.edges:
        edge.coverage_radius_m = 220.0
    scenario = DriveScenario(world=world, observe=observe)
    scenario.add_service(make_adas_service(deadline_s=0.6), period_s=1.0)
    return scenario.run(duration_s=40.0)


def test_scenario_wires_one_collector_across_subsystems():
    collector = Collector()
    _drive(observe=collector)
    snap = collector.snapshot()
    # Kernel, VCU, and scenario hooks all landed in the same registry.
    assert snap["counters"]["sim.events_fired"] > 0
    assert any(k.startswith("vcu.tasks_completed") for k in snap["counters"])
    assert any(k.startswith("scenario.invocations") for k in snap["counters"])
    assert "scenario.dsrc_mbps" in snap["histograms"]
    assert "sim.queue_depth" in snap["histograms"]
    assert snap["gauges"]["scenario.vehicle_energy_j"]["last"] > 0
    # The kernel exported process lifetimes as async span pairs.
    phases = {e["ph"] for e in collector.tracer.events}
    assert {"b", "e", "M"} <= phases


#: sha256 of ``metrics_json()`` after ``_drive(observe=Collector())``.
#:
#: The rerun test below is relative: a change that moves both runs
#: together passes it.  This digest is absolute.  Re-baseline policy: an
#: *intended* change to the drive's metrics (a new series, a moved sample,
#: a different estimator) replaces the constant with the digest printed by
#: ``PYTHONPATH=src python tests/obs/test_platform_obs.py`` and says why in
#: the commit, so the moved bytes are reviewed.  An unintended change
#: fails here.
DRIVE_METRICS_SHA256 = (
    "aa84e85effd78756668887f9b13e9cd9d940be71bff70570db37d4e7a5fbe883"
)


def _observed_metrics_digest() -> str:
    collector = Collector()
    _drive(observe=collector)
    return hashlib.sha256(collector.metrics_json().encode()).hexdigest()


def test_observed_drive_metrics_match_golden_digest():
    assert _observed_metrics_digest() == DRIVE_METRICS_SHA256


def test_identical_seed_runs_export_byte_identical_json():
    a, b = Collector(), Collector()
    _drive(observe=a)
    _drive(observe=b)
    assert a.metrics_json() == b.metrics_json()
    assert a.trace_json() == b.trace_json()


def test_observation_does_not_perturb_the_simulation():
    plain = _drive(observe=None)
    observed = _drive(observe=Collector())
    assert plain.vehicle_energy_j == observed.vehicle_energy_j
    for name in plain.services:
        assert plain.services[name].invocations == observed.services[name].invocations
        assert (plain.services[name].latency.samples
                == observed.services[name].latency.samples)


def test_a_drive_without_a_deadline_miss_has_no_miss_series():
    collector = Collector()
    report = _drive(observe=collector)
    assert all(s.deadline_misses == 0 for s in report.services.values())
    assert not any(key.startswith("scenario.deadline_misses")
                   for key in collector.snapshot()["counters"])


def test_the_miss_series_counts_every_miss_from_the_first():
    # No pipeline meets a 0.2 s deadline: degraded mode runs the best one
    # anyway, and every invocation misses.
    collector = Collector()
    scenario = DriveScenario(world=build_default_world(), observe=collector)
    scenario.manager.degrade_before_hang = True
    scenario.add_service(make_adas_service(deadline_s=0.2), period_s=1.0)
    report = scenario.run(duration_s=10.0)
    counters = collector.snapshot()["counters"]
    assert (report.services["adas-perception"].deadline_misses
            == counters["scenario.deadline_misses{service=adas-perception}"]
            == 10)


def test_simulator_obs_defaults_to_null_recorder():
    sim = Simulator()
    assert sim.obs.enabled is False
    sim.timeout(1.0)
    sim.run()  # no recorder installed: runs clean


def test_simulator_binds_collector_clock():
    collector = Collector()
    sim = Simulator(obs=collector)

    def proc(sim):
        yield sim.timeout(2.0)
        collector.instant("mark", track="t")

    sim.process(proc(sim))
    sim.run()
    (mark,) = [e for e in collector.tracer.events if e["ph"] == "i"]
    assert mark["ts"] == pytest.approx(2e6)


# -- Summary cache (the perf fix) ------------------------------------------


def test_summary_cache_invalidates_on_record():
    summary = Summary("lat")
    summary.record(1.0)
    assert summary.mean == 1.0
    summary.record(3.0)
    assert summary.mean == 2.0 and summary.p50 == 2.0


def test_summary_cache_detects_direct_sample_mutation():
    summary = Summary("lat", samples=[1.0, 2.0])
    assert summary.mean == 1.5
    summary.samples.append(6.0)  # legacy callers mutate the list directly
    assert summary.mean == 3.0


if __name__ == "__main__":
    print(_observed_metrics_digest())
