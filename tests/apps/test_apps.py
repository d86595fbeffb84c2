"""Tests for the application layer: diagnostics, ADAS, AMBER, collab."""

import numpy as np
import pytest

from repro.apps import (
    AmberSearchService,
    DiagnosticsService,
    Platoon,
    PlateSighting,
    generate_sightings,
    make_adas_service,
    make_amber_service,
)
from repro.apps.adas import AdasService
from repro.ddi import Record
from repro.edgeos import ElasticManager
from repro.topology import Tier, build_default_world
from repro.vision import road_scene, train_haar_detector, vehicle_patch, background_patch


def obd(t, **payload):
    defaults = {"engine_temp_c": 90.0, "tire_pressure_kpa": 230.0,
                "battery_v": 13.8, "rpm": 2000.0}
    defaults.update(payload)
    return Record(stream="obd", timestamp=t, x_m=0.0, y_m=0.0, payload=defaults)


# -- diagnostics -----------------------------------------------------------------


def test_diagnostics_healthy_record_raises_nothing():
    service = DiagnosticsService()
    assert service.check(obd(1.0)) == []


def test_diagnostics_rules_fire():
    service = DiagnosticsService()
    faults = service.check(obd(1.0, engine_temp_c=110.0, tire_pressure_kpa=180.0))
    codes = {f.code for f in faults}
    assert codes == {"P0217", "C0750"}
    assert any(f.severity == "critical" for f in faults)


def test_diagnostics_predicts_drift_to_fault():
    service = DiagnosticsService()
    # Tire pressure dropping 1 kPa per minute from 230: hits 190 in 40 min.
    records = [obd(60.0 * i, tire_pressure_kpa=230.0 - i) for i in range(10)]
    predictions = service.predict(records, horizon_s=4 * 3600)
    channels = {p.channel for p in predictions}
    assert "tire_pressure_kpa" in channels
    tire = next(p for p in predictions if p.channel == "tire_pressure_kpa")
    # ~31 minutes left from the last sample (221 kPa at t=540).
    assert tire.eta_s == pytest.approx(31 * 60, rel=0.2)


def test_diagnostics_prediction_ignores_stable_channels():
    service = DiagnosticsService()
    records = [obd(60.0 * i) for i in range(10)]
    assert service.predict(records) == []


def test_diagnostics_prediction_needs_history():
    service = DiagnosticsService()
    assert service.predict([obd(0.0)]) == []


# -- ADAS -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def adas():
    rng = np.random.default_rng(0)
    positives = [vehicle_patch(24, rng) for _ in range(50)]
    negatives = [background_patch(24, rng) for _ in range(50)]
    haar = train_haar_detector(positives, negatives, rounds=12, rng=rng)
    return AdasService(haar)


def test_adas_analyzes_scene(adas):
    img, _truth = road_scene(width=320, height=240,
                             rng=np.random.default_rng(1), vehicle_count=1)
    report = adas.analyze(img)
    assert report.lanes_found
    assert report.ops > 0


def test_adas_forward_vehicle_alert_on_close_vehicle(adas):
    rng = np.random.default_rng(3)
    img, truth = road_scene(width=320, height=240, rng=rng, vehicle_count=1)
    report = adas.analyze(img)
    # A vehicle occupying >5% of the frame should raise the forward alert
    # whenever the detector saw it.
    vx, vy, vw, vh = truth.vehicle_boxes[0]
    if report.detections and vw * vh / (320 * 240) > 0.05:
        assert any(a.kind == "forward_vehicle" for a in report.alerts)


def test_adas_polymorphic_service_pipelines():
    service = make_adas_service()
    assert {p.name for p in service.pipelines} == {
        "onboard", "detect-on-edge", "perception-on-edge"
    }
    # Capture must stay on the vehicle in every pipeline (it's the sensor).
    for pipeline in service.pipelines:
        assert pipeline.assignment["capture"] == Tier.VEHICLE


def test_adas_service_schedulable_by_elastic_manager():
    world = build_default_world()
    manager = ElasticManager()
    service = make_adas_service(deadline_s=1.0)
    manager.register(service)
    choice = manager.choose(service, world)
    assert not choice.hung


# -- AMBER search -------------------------------------------------------------------


def test_amber_finds_target_plate():
    rng = np.random.default_rng(0)
    service = AmberSearchService(target_plate="KIDNAP-1")
    sightings = generate_sightings(300, "KIDNAP-1", rng)
    for sighting in sightings:
        service.process(sighting)
    assert service.hits
    assert service.hits[0].plate == "KIDNAP-1"
    assert service.gops_spent > 0


def test_amber_low_quality_sighting_misses():
    service = AmberSearchService(target_plate="KIDNAP-1")
    blurry = PlateSighting(time_s=0.0, position_m=0.0, plate="KIDNAP-1", quality=0.1)
    assert service.process(blurry) is None
    assert not service.hits


def test_amber_wrong_plate_never_matches():
    service = AmberSearchService(target_plate="KIDNAP-1")
    other = PlateSighting(time_s=0.0, position_m=0.0, plate="XYZ-0001", quality=0.9)
    assert service.process(other) is None


def test_amber_polymorphic_service_shape():
    service = make_amber_service()
    assert {p.name for p in service.pipelines} == {"onboard", "offload-all", "split"}
    split = service.pipeline("split")
    assert split.assignment["motion-detect"] == Tier.VEHICLE
    assert split.assignment["plate-recognize"] == Tier.EDGE


# -- collaboration ------------------------------------------------------------------


def shared_sightings(vehicles=3, per_vehicle=60, overlap=0.7, seed=0):
    """Sighting lists where ``overlap`` of candidates are seen by everyone."""
    rng = np.random.default_rng(seed)
    base = generate_sightings(per_vehicle, "TARGET-1", rng)
    lists = []
    for v in range(vehicles):
        mine = []
        for s in base:
            if rng.random() < overlap:
                # Same candidate, observed slightly later by this vehicle.
                mine.append(PlateSighting(s.time_s + 0.2 * v, s.position_m,
                                          s.plate, s.quality))
            else:
                mine.append(PlateSighting(s.time_s + 0.2 * v,
                                          float(rng.uniform(0, 10_000)),
                                          f"UNIQ-{v}-{len(mine)}", s.quality))
        lists.append(mine)
    return lists


def test_platoon_validation():
    with pytest.raises(ValueError):
        Platoon(0)
    platoon = Platoon(2)
    with pytest.raises(ValueError):
        platoon.run([[]])


def test_collaboration_saves_compute():
    """SIII-C: collaboration avoids repeated recognition of shared candidates."""
    sightings = shared_sightings()
    collab = Platoon(3, collaborate=True).run(sightings)
    solo = Platoon(3, collaborate=False).run(sightings)
    assert collab.gops_spent < solo.gops_spent
    assert collab.recognitions_reused > 0
    assert solo.recognitions_reused == 0
    assert collab.reuse_rate > 0.3


def test_collaboration_publishes_under_pseudonyms():
    platoon = Platoon(2, collaborate=True)
    sightings = shared_sightings(vehicles=2, per_vehicle=20)
    platoon.run(sightings)
    records = platoon.bus.read(
        platoon.vehicles[0].vehicle_id, platoon.vehicles[0].token, "recognized-plates"
    )
    assert records
    for record in records:
        reporter = record.payload["reporter"]
        assert reporter not in ("cav-0", "cav-1")  # raw identity never shared

