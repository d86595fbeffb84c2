"""Tests for the common model library, pBEAM pipeline, and API facade."""

import numpy as np
import pytest

from repro.ddi import DDIService, DiskDB, Record
from repro.edgeos import DataSharingBus
from repro.hw import catalog
from repro.libvdap import (
    ApiError,
    CommonModelLibrary,
    LibVDAP,
    build_pbeam,
    train_cbeam,
)
from repro.libvdap.models import CompressedVariant, ModelEntry
from repro.nn.zoo import SPEC_REGISTRY
from repro.offload import Task, TaskGraph
from repro.sim import Simulator
from repro.topology import build_default_world
from repro.vcu import DSF, MHEP
from repro.hw.processor import WorkloadClass
from repro.workloads import DriverProfile, fleet_dataset


# -- model library ------------------------------------------------------------


def test_library_defaults_present():
    library = CommonModelLibrary()
    names = [e.name for e in library.list()]
    assert "inception_v3" in names and "yolo_v2" in names


def test_library_category_filter():
    library = CommonModelLibrary()
    assert all(e.category == "video" for e in library.list("video"))
    assert library.list("nlp") == []


def test_library_duplicate_and_missing():
    library = CommonModelLibrary()
    with pytest.raises(ValueError):
        library.register(library.get("yolo_v2"))
    with pytest.raises(KeyError):
        library.get("nonexistent")


def test_compressed_variant_is_smaller_and_faster():
    entry = CommonModelLibrary().get("inception_v3")
    assert entry.compressed.size_bytes < entry.full.size_bytes / 5
    mncs = catalog.intel_mncs()
    assert entry.compressed.inference_time_s(mncs) < entry.full.inference_time_s(mncs)


def test_deployable_on_small_device():
    """The paper: full models are 'too large' for the edge; compressed fit."""
    library = CommonModelLibrary()
    mncs = catalog.intel_mncs()  # 0.5 GB of device memory
    entry = library.get("yolo_v2")  # 203 MB full
    assert entry.fits_on(mncs, compressed=True)


# -- pBEAM ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def cbeam_corpus():
    rng = np.random.default_rng(0)
    return fleet_dataset(10, 100, rng)


def test_cbeam_learns_the_fleet(cbeam_corpus):
    x, y = cbeam_corpus
    model = train_cbeam(x, y, epochs=10)
    assert model.accuracy(x, y) > 0.9


def test_pbeam_personalization_gain_for_idiosyncratic_driver(cbeam_corpus):
    """Figure 9's payoff: pBEAM fits the local driver better than cBEAM."""
    x, y = cbeam_corpus
    cbeam = train_cbeam(x, y, epochs=10)
    driver = DriverProfile("outlier", aggressiveness=2.5,
                           speed_preference_mps=4.0, smoothness=0.7)
    result = build_pbeam(cbeam, driver, rng=np.random.default_rng(1))
    assert result.pbeam_accuracy_on_driver > result.cbeam_accuracy_on_driver
    assert result.pbeam_accuracy_on_driver > 0.9


def test_pbeam_download_is_compressed(cbeam_corpus):
    x, y = cbeam_corpus
    cbeam = train_cbeam(x, y, epochs=5)
    dense_bytes = cbeam.size_bytes()
    driver = DriverProfile("d", aggressiveness=1.5)
    result = build_pbeam(cbeam, driver, rng=np.random.default_rng(2))
    assert result.download_bytes < dense_bytes / 3
    assert result.compression.compression_ratio > 3


# -- API facade -------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def api(tmp_path):
    sim = Simulator()
    mhep = MHEP(sim)
    mhep.register(catalog.intel_i7_6700())
    mhep.register(catalog.jetson_tx2_maxp())
    dsf = DSF(sim, mhep)
    ddi = DDIService(FakeClock(), DiskDB(str(tmp_path)))
    sharing = DataSharingBus()
    world = build_default_world()
    return sim, LibVDAP(dsf, ddi, sharing, world=world)


def test_api_list_and_get_models(api):
    _sim, lib = api
    models = lib.call("GET", "/models")
    assert any(m["name"] == "inception_v3" for m in models)
    one = lib.call("GET", "/models/yolo_v2")
    assert one["task"] == "object detection"


def test_api_resources_route(api):
    _sim, lib = api
    resources = lib.call("GET", "/resources")
    assert "Intel i7-6700" in resources


def test_api_task_submission_runs_on_vcu(api):
    sim, lib = api
    graph = TaskGraph.chain("job", [Task("t", 99.75, WorkloadClass.DNN)])
    proc = lib.call("POST", "/tasks", graph=graph)
    sim.run()
    assert proc.value.latency_s == pytest.approx(1.0)


def test_api_offload_planning(api):
    _sim, lib = api
    graph = TaskGraph.chain(
        "heavy",
        [Task("t", 30.0, WorkloadClass.DNN, output_bytes=1000, source_bytes=300_000)],
    )
    decision = lib.call("POST", "/offload/plan", graph=graph, deadline_s=5.0)
    assert decision.meets_deadline


def test_api_data_roundtrip(api):
    _sim, lib = api
    record = Record(stream="obd", timestamp=1.0, x_m=0.0, y_m=0.0,
                    payload={"speed_mps": 10})
    lib.call("POST", "/data", record=record)
    result = lib.call("GET", "/data/obd", t0=0.0, t1=5.0)
    assert len(result.records) == 1


def test_api_topic_roundtrip(api):
    _sim, lib = api
    token = lib.sharing.register_service("svc")
    lib.sharing.create_topic("alerts", readers=["svc"], writers=["svc"])
    lib.call("POST", "/topics/alerts", service="svc", token=token, payload="ping")
    records = lib.call("GET", "/topics/alerts", service="svc", token=token)
    assert [r.payload for r in records] == ["ping"]


def test_api_unknown_route_and_missing_param(api):
    _sim, lib = api
    with pytest.raises(ApiError):
        lib.call("GET", "/nope")
    with pytest.raises(ApiError):
        lib.call("POST", "/tasks")  # graph missing


def test_api_without_world_rejects_offload(tmp_path):
    sim = Simulator()
    mhep = MHEP(sim)
    mhep.register(catalog.intel_i7_6700())
    lib = LibVDAP(DSF(sim, mhep), DDIService(FakeClock(), DiskDB(str(tmp_path))),
                  DataSharingBus(), world=None)
    graph = TaskGraph.chain("g", [Task("t", 1.0, WorkloadClass.DNN)])
    with pytest.raises(ApiError):
        lib.call("POST", "/offload/plan", graph=graph)
