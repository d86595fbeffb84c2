"""Tests for the high-level DriveScenario orchestrator."""

import pytest

from repro.apps import make_adas_service, make_amber_service
from repro.edgeos import SecurityModule
from repro.edgeos.elastic import ElasticManager
from repro.edgeos.service import ServiceState
from repro.hw import catalog
from repro.scenario import DriveScenario
from repro.topology import SpeedProfile, build_default_world
from repro.workloads.services import ADAS_TASKS

from ..grants import outstanding_grants


def scenario(tmp_path=None, **kwargs):
    world = build_default_world(
        speed_mps=15.0,
        edge_count=3,
        edge_spacing_m=600.0,
        vehicle_processors=[catalog.intel_i7_6700(), catalog.intel_mncs()],
    )
    # Coverage gaps between RSUs: shrink the radii.
    for edge in world.edges:
        edge.coverage_radius_m = 200.0
    return DriveScenario(world=world, ddi_root=str(tmp_path) if tmp_path else None,
                         **kwargs)


def test_scenario_validation(tmp_path):
    with pytest.raises(ValueError):
        DriveScenario(tick_s=0.0)
    s = scenario()
    with pytest.raises(ValueError):
        s.add_service(make_adas_service(), period_s=0.0)
    with pytest.raises(ValueError):
        s.run(0.0)
    with pytest.raises(RuntimeError):
        s.attach_obd(SpeedProfile([(0.0, 15.0)]))


def test_dsrc_quality_follows_coverage():
    s = scenario()
    # t=0: vehicle at x=0, on top of xedge-0 -> full rate.
    assert s.dsrc_quality_at(0.0) == pytest.approx(27.0)
    # Vehicle at x=300 (t=20): between cells (gap) -> dead.
    assert s.dsrc_quality_at(20.0) < 1.0


def test_drive_produces_consistent_report(tmp_path):
    s = scenario(tmp_path)
    s.add_service(make_adas_service(deadline_s=0.6), period_s=1.0)
    s.add_service(make_amber_service(deadline_s=3.0), period_s=5.0)
    s.attach_obd(SpeedProfile([(0.0, 15.0)]))
    report = s.run(120.0)
    assert outstanding_grants(s) == 0

    adas = report.service("adas-perception")
    amber = report.service("amber-search")
    # Invocation counts respect the periods (minus any hung ticks).
    assert 0 < amber.invocations <= adas.invocations
    assert adas.invocations + adas.hung_ticks >= 100
    # Latency summaries populated and sane.
    assert adas.latency.count == adas.invocations
    assert 0 < adas.latency.mean < 10.0
    # The drive crosses coverage gaps: pipelines must have switched.
    assert adas.switches >= 2
    # On-board work burned energy; DDI collected every tick.
    assert report.vehicle_energy_j > 0.0
    assert report.ddi_records == 120


def test_coverage_gaps_force_onboard_or_hang(tmp_path):
    s = scenario(tmp_path)
    s.add_service(make_adas_service(deadline_s=0.6), period_s=1.0)
    report = s.run(120.0)
    assert outstanding_grants(s) == 0
    timeline = report.service("adas-perception").pipeline_timeline
    values = set(timeline.values)
    # In gaps the service runs on board (or hangs); near RSUs it offloads.
    assert "onboard" in values
    assert values & {"detect-on-edge", "perception-on-edge"}


def test_deadline_misses_counted_against_service_deadline(tmp_path):
    s = scenario(tmp_path)
    # Impossible deadline: every non-hung invocation misses... actually the
    # manager hangs the service instead, so invocations stay at zero.
    s.add_service(make_adas_service(deadline_s=1e-6), period_s=1.0)
    report = s.run(30.0)
    assert outstanding_grants(s) == 0
    svc = report.service("adas-perception")
    assert svc.invocations == 0
    assert svc.hung_ticks >= 29


def test_distributed_execution_mode_records_real_latencies(tmp_path):
    """With execute_distributed, every invocation's full placed graph runs
    through the executor; executed latencies are >= the analytic values
    (queueing, serialized links)."""
    s = scenario(execute_distributed=True)
    s.add_service(make_adas_service(deadline_s=0.8), period_s=1.0)
    report = s.run(60.0)
    assert outstanding_grants(s) == 0
    svc = report.service("adas-perception")
    assert svc.executed_latency.count > 0
    # Executed latency accounts everything the analytic model does, plus
    # contention -- so its mean can't be materially below the analytic one.
    assert svc.executed_latency.mean >= svc.latency.mean * 0.8


def test_default_mode_does_not_record_executed_latency(tmp_path):
    s = scenario()
    s.add_service(make_adas_service(deadline_s=0.8), period_s=1.0)
    report = s.run(30.0)
    assert outstanding_grants(s) == 0
    assert report.service("adas-perception").executed_latency.count == 0


def test_compromised_service_sits_out_until_reinstalled():
    """Elastic control runs only the services the manager manages: a
    compromised service is neither re-tuned back to running nor invoked,
    and stays compromised for the security monitor to reinstall."""
    s = scenario()
    adas = make_adas_service(deadline_s=0.8)
    s.add_service(adas, period_s=1.0)
    security = SecurityModule()
    seen = {}

    def attack(sim):
        yield sim.timeout(2.5)
        security.report_compromise(adas)
        yield sim.timeout(1.0)
        seen["state"] = adas.state

    s.sim.process(attack(s.sim))
    report = s.run(5.0)
    assert outstanding_grants(s) == 0
    assert report.service("adas-perception").invocations == 3
    assert seen["state"] is ServiceState.COMPROMISED
    assert adas.state is ServiceState.COMPROMISED
    assert security.monitor([adas]) == ["adas-perception"]
    assert adas.reinstall_count == 1


@pytest.mark.parametrize("owner", ["dsf-device", "executor-slot"])
def test_grant_audit_reports_a_leaked_grant(owner):
    """A process that takes a grant and never releases it leaves the slot
    held after the run; the audit reports it."""
    s = scenario()
    if owner == "dsf-device":
        slot = s.mhep.online_devices[0].resource
    else:
        slot = s.executor._processor_slot("vehicle", "leaky")

    def run(sim, pool, service_s):
        grant = pool.request()
        yield grant
        yield sim.timeout(service_s)

    s.sim.process(run(s.sim, slot, 1.0))
    s.sim.run()
    assert outstanding_grants(s) == 1


class RetuneFault(RuntimeError):
    pass


def fail_retune_from_call(monkeypatch, call: int) -> None:
    """Make every ``ElasticManager.retune`` from the ``call``-th on raise."""
    retune = ElasticManager.retune
    calls = [0]

    def faulty(self, world, *args, **kwargs):
        calls[0] += 1
        if calls[0] >= call:
            raise RetuneFault(f"retune call {calls[0]}")
        return retune(self, world, *args, **kwargs)

    monkeypatch.setattr(ElasticManager, "retune", faulty)


def test_a_drive_loop_that_raises_ends_the_run(monkeypatch):
    s = scenario()
    s.add_service(make_adas_service(deadline_s=0.6), period_s=1.0)
    fail_retune_from_call(monkeypatch, 6)
    with pytest.raises(RetuneFault, match="retune call 6"):
        s.run(30.0)
    assert s.sim.now == 5.0  # vdaplint: disable=FLT001


def test_onboard_share_keeps_the_edges_between_vehicle_tasks():
    # One vehicle, ADAS pinned on board: every frame's four tasks run
    # through the DSF, and fuse-alert must wait for both detectors.
    s = scenario()
    service = make_adas_service(deadline_s=5.0)
    service.pipelines = [service.pipeline("onboard")]
    s.add_service(service, period_s=1.0)
    # id(job) -> (job, {task: start time}); holding the job keeps its id.
    starts = {}
    start = s.dsf._start

    def stamped(run):
        starts.setdefault(id(run.job), (run.job, {}))[1][run.task.name] = s.sim.now
        start(run)

    s.dsf._start = stamped
    s.run(10.0)
    assert len(starts) == 10
    for job, started in starts.values():
        result = job.result
        assert set(started) == set(ADAS_TASKS)
        capture, lane, detect, fuse = ADAS_TASKS
        assert started[lane] >= result.task_finish[capture]
        assert started[detect] >= result.task_finish[capture]
        assert started[fuse] >= max(result.task_finish[lane],
                                    result.task_finish[detect])
