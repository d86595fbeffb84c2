"""Integration tests: whole-platform scenarios across subsystems.

These wire the real components together -- simulator, mHEP/DSF, DDI,
data sharing, elastic management, security -- and drive multi-step
scenarios, including the failure-injection cases DESIGN.md calls out.
"""

import numpy as np
import pytest

from repro.apps import DiagnosticsService, make_adas_service, make_amber_service
from repro.ddi import DDIService, DiskDB, OBDCollector
from repro.edgeos import (
    DataSharingBus,
    ElasticManager,
    SecurityModule,
    ServiceState,
)
from repro.hw import WorkloadClass, catalog
from repro.libvdap import LibVDAP
from repro.offload import Task, TaskGraph
from repro.sim import Simulator
from repro.topology import SpeedProfile, build_default_world
from repro.vcu import DSF, MHEP, SECOND_LEVEL
from repro.workloads import STANDARD_MIX


def boot_platform(tmp_path, processors=None):
    """Bring up the full on-board stack."""
    sim = Simulator()
    mhep = MHEP(sim)
    for proc in processors or (catalog.intel_i7_6700(), catalog.jetson_tx2_maxp()):
        mhep.register(proc)
    dsf = DSF(sim, mhep)
    ddi = DDIService(lambda: sim.now, DiskDB(str(tmp_path / "ddi")))
    sharing = DataSharingBus()
    world = build_default_world()
    lib = LibVDAP(dsf, ddi, sharing, world=world)
    return sim, mhep, dsf, ddi, sharing, world, lib


def test_periodic_service_mix_runs_to_completion(tmp_path):
    """The standard 4-service mix submitted periodically through libvdap
    all completes, with the DSF spreading work across devices."""
    sim, mhep, dsf, _ddi, _sharing, _world, lib = boot_platform(tmp_path)
    procs = []

    def driver(sim):
        for round_idx in range(5):
            for factory, _deadline in STANDARD_MIX:
                procs.append(lib.submit(factory()))
            yield sim.timeout(1.0)

    sim.process(driver(sim))
    sim.run()
    assert len(procs) == 20
    assert all(p.processed for p in procs)  # p.value below raises on a failure
    devices_used = {
        device for p in procs for device in p.value.task_devices.values()
    }
    assert len(devices_used) >= 2  # heterogeneity actually exploited


def test_drive_with_ddi_collection_and_diagnostics(tmp_path):
    """OBD collection into the DDI during a simulated drive, with the
    diagnostics service analyzing through the libvdap data API."""
    sim, _mhep, _dsf, ddi, _sharing, _world, lib = boot_platform(tmp_path)
    profile = SpeedProfile([(0.0, 15.0), (300.0, 0.0)])
    ddi.attach_collector(OBDCollector(profile=profile, rng=np.random.default_rng(0)))

    def collector_loop(sim):
        for _ in range(60):
            ddi.collect_all(sim.now)
            yield sim.timeout(5.0)

    sim.process(collector_loop(sim))
    sim.run()

    result = lib.call("GET", "/data/obd", t0=0.0, t1=300.0)
    assert len(result.records) == 60
    diagnostics = DiagnosticsService()
    for record in result.records:
        diagnostics.check(record)
    # A healthy synthetic vehicle raises no codes.
    assert diagnostics.faults == []


def test_failure_injection_2ndhep_device_leaves_mid_backlog(tmp_path):
    """A passenger phone leaves while jobs are queued: everything still
    completes, on the remaining devices only."""
    sim = Simulator()
    mhep = MHEP(sim)
    mhep.register(catalog.onboard_controller())
    mhep.register(catalog.passenger_phone(), level=SECOND_LEVEL)
    dsf = DSF(sim, mhep)

    jobs = [
        dsf.submit(TaskGraph.chain(f"j{i}", [Task(f"j{i}-t", 10.0, WorkloadClass.DNN)]))
        for i in range(8)
    ]

    def passenger_leaves(sim):
        yield sim.timeout(3.0)
        mhep.unregister("Passenger phone")
        # Late work arrives after the phone is gone.
        jobs.append(
            dsf.submit(TaskGraph.chain("late", [Task("late-t", 10.0, WorkloadClass.DNN)]))
        )

    sim.process(passenger_leaves(sim))
    sim.run()
    late = [p.value for p in jobs][-1]  # raises if any job failed
    assert late.task_devices["late-t"] == "On-board controller"


def test_failure_injection_edge_outage_hangs_and_recovers(tmp_path):
    """XEdge connectivity dies: the elastic manager hangs the service that
    needs the edge, then resumes it when coverage returns."""
    world = build_default_world(vehicle_processors=[catalog.onboard_controller()])
    manager = ElasticManager()
    service = make_amber_service(deadline_s=0.8)
    manager.register(service)

    assert not manager.choose(service, world).hung

    # Outage: both radio paths die.
    good_edge = world.links.vehicle_edge.bandwidth_mbps
    good_cloud = world.links.vehicle_cloud.bandwidth_mbps
    world.links.vehicle_edge.bandwidth_mbps = 0.01
    world.links.vehicle_cloud.bandwidth_mbps = 0.01
    assert manager.choose(service, world).hung
    assert service.state is ServiceState.HUNG

    world.links.vehicle_edge.bandwidth_mbps = good_edge
    world.links.vehicle_cloud.bandwidth_mbps = good_cloud
    resumed = manager.choose(service, world)
    assert not resumed.hung
    assert service.hang_count == 1


def test_failure_injection_compromise_recovery_preserves_scheduling(tmp_path):
    """A third-party service is compromised mid-operation; the security
    module reinstalls it and the elastic manager keeps scheduling it."""
    world = build_default_world()
    manager = ElasticManager()
    security = SecurityModule()
    service = make_adas_service(deadline_s=1.0)
    manager.register(service)
    container = security.deploy(service, b"adas-image-v1")
    container.write_file("/tmp/exploit", b"rootkit")

    security.report_compromise(service)
    assert service.state is ServiceState.COMPROMISED
    # While compromised, retune skips it.
    assert manager.retune(world) == []

    recovered = security.monitor(manager.services)
    assert recovered == ["adas-perception"]
    assert container.filesystem == {}
    choice = manager.choose(service, world)
    assert not choice.hung


def test_cross_service_sharing_through_bus(tmp_path):
    """ADAS publishes detections; the AMBER service consumes them under the
    ACL; an unauthorized diagnostics service cannot."""
    _sim, _mhep, _dsf, _ddi, sharing, _world, _lib = boot_platform(tmp_path)
    adas_token = sharing.register_service("adas")
    amber_token = sharing.register_service("amber")
    diag_token = sharing.register_service("diag")
    sharing.create_topic("detections", readers=["amber"], writers=["adas"])

    sharing.publish("adas", adas_token, "detections",
                    {"box": (10, 20, 64, 64), "kind": "vehicle"})
    seen = sharing.read("amber", amber_token, "detections")
    assert len(seen) == 1

    from repro.edgeos import AccessDenied
    with pytest.raises(AccessDenied):
        sharing.read("diag", diag_token, "detections")


def test_offload_plan_matches_dsf_execution_for_local_placement(tmp_path):
    """When the planner keeps a job on the vehicle, the DSF's simulated
    execution time matches the plan's predicted latency."""
    from repro.offload import LocalOnly

    sim, _mhep, dsf, _ddi, _sharing, world, lib = boot_platform(tmp_path)
    graph = TaskGraph.chain(
        "local-job", [Task("t", 50.0, WorkloadClass.DNN, output_bytes=100)]
    )
    decision = LocalOnly().decide(graph, world)
    job = lib.submit(TaskGraph.chain(
        "local-job-2", [Task("t", 50.0, WorkloadClass.DNN, output_bytes=100)]
    ))
    sim.run()
    assert job.value.latency_s == pytest.approx(decision.evaluation.latency_s, rel=1e-6)


def test_elastic_management_driven_by_estimated_links(tmp_path):
    """The manager can operate on *estimated* link quality (the paper's
    open problem): probes feed a LinkEstimator, whose estimate replaces the
    oracle link in the world the manager evaluates against."""
    from repro.net import LinkEstimator

    truth_world = build_default_world(
        vehicle_processors=[catalog.onboard_controller()]
    )
    planning_world = build_default_world(
        vehicle_processors=[catalog.onboard_controller()]
    )
    manager = ElasticManager()
    service = make_amber_service(deadline_s=0.8)
    manager.register(service)
    estimator = LinkEstimator(alpha=0.5)

    # Phase 1: healthy DSRC, probed and estimated.
    for t in range(5):
        estimator.probe_link(float(t), truth_world.links.vehicle_edge)
    planning_world.links.vehicle_edge = estimator.estimate(5.0).as_link("dsrc-est")
    healthy = manager.choose(service, planning_world)
    assert not healthy.hung

    # Phase 2: the real link collapses; probes see it; the estimate follows.
    truth_world.links.vehicle_edge.bandwidth_mbps = 0.01
    truth_world.links.vehicle_cloud.bandwidth_mbps = 0.01
    for t in range(5, 15):
        estimator.probe_link(float(t), truth_world.links.vehicle_edge)
    planning_world.links.vehicle_edge = estimator.estimate(15.0).as_link("dsrc-est")
    planning_world.links.vehicle_cloud.bandwidth_mbps = 0.01
    degraded = manager.choose(service, planning_world)
    assert degraded.hung or degraded.pipeline == "onboard"
