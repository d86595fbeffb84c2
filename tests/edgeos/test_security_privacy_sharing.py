"""Tests for the Security, Privacy and Data Sharing modules."""

import pytest

from repro.edgeos import (
    AccessDenied,
    AttestationError,
    DataSharingBus,
    LocationFuzzer,
    Pipeline,
    PolymorphicService,
    PseudonymManager,
    SecurityModule,
    ServiceState,
)
from repro.hw import WorkloadClass
from repro.offload import Task, TaskGraph
from repro.topology import Tier
from repro.vcu import QoSClass


def make_service(name="svc", tee=False):
    return PolymorphicService(
        name=name,
        qos=QoSClass.LATENCY_SENSITIVE,
        deadline_s=1.0,
        graph_factory=lambda: TaskGraph.chain(
            name, [Task(f"{name}-t", 0.1, WorkloadClass.CONTROL)]
        ),
        pipelines=[Pipeline("onboard", {f"{name}-t": Tier.VEHICLE})],
        requires_tee=tee,
    )


# -- TEE ----------------------------------------------------------------------


def test_enclave_roundtrip_with_session_key():
    module = SecurityModule()
    enclave = module.deploy(make_service("ad", tee=True), b"autonomous-driving-v1")
    enclave.write("state", b"secret plan")
    assert enclave.read("state", enclave.session_key) == b"secret plan"


def test_enclave_memory_is_encrypted_at_rest():
    module = SecurityModule()
    enclave = module.deploy(make_service("ad", tee=True), b"code")
    enclave.write("state", b"secret plan")
    assert enclave.raw_memory("state") != b"secret plan"


def test_enclave_wrong_key_never_reveals_plaintext():
    module = SecurityModule()
    enclave = module.deploy(make_service("ad", tee=True), b"code")
    enclave.write("state", b"secret plan")
    leaked = enclave.read("state", b"0" * 32)
    assert leaked != b"secret plan"


def test_attestation_accepts_pristine_code_and_rejects_tampered():
    module = SecurityModule()
    enclave = module.deploy(make_service("ad", tee=True), b"genuine code")
    enclave.verify_quote(b"genuine code")  # no raise
    with pytest.raises(AttestationError):
        enclave.verify_quote(b"trojaned code")


def test_two_enclaves_have_distinct_session_keys():
    module = SecurityModule()
    a = module.deploy(make_service("a", tee=True), b"code-a")
    b = module.deploy(make_service("b", tee=True), b"code-b")
    assert a.session_key != b.session_key
    # Service b's key cannot read a's memory.
    a.write("x", b"private to a")
    assert b.session_key != a.session_key
    assert a.read("x", b.session_key) != b"private to a"


# -- containers & recovery ------------------------------------------------------


def test_duplicate_deploy_rejected():
    module = SecurityModule()
    service = make_service("svc")
    module.deploy(service, b"img")
    with pytest.raises(ValueError):
        module.deploy(service, b"img")


def test_container_isolation_and_reinstall():
    module = SecurityModule()
    service = make_service("thirdparty")
    container = module.deploy(service, b"pristine-image")
    container.write_file("/data/creds", b"stolen")
    module.report_compromise(service)
    assert service.state is ServiceState.COMPROMISED
    assert container.compromised

    recovered = module.monitor([service])
    assert recovered == ["thirdparty"]
    assert service.state is ServiceState.RUNNING
    assert service.reinstall_count == 1
    assert container.generation == 1
    assert container.filesystem == {}  # wiped


def test_monitor_ignores_healthy_services():
    module = SecurityModule()
    service = make_service("ok")
    module.deploy(service, b"img")
    assert module.monitor([service]) == []
    assert module.reinstalls == 0


def test_tee_service_recovery_rebuilds_enclave():
    module = SecurityModule()
    service = make_service("critical", tee=True)
    enclave = module.deploy(service, b"pristine")
    enclave.write("state", b"dirty")
    module.report_compromise(service)
    module.monitor([service])
    fresh = module.enclave("critical")
    assert fresh is not enclave
    fresh.verify_quote(b"pristine")  # fresh enclave attests to pristine code


# -- privacy ---------------------------------------------------------------------


def test_pseudonym_stable_within_epoch_and_rotates_across():
    manager = PseudonymManager("VIN-123", b"secret", rotation_period_s=300.0)
    assert manager.pseudonym(10.0) == manager.pseudonym(290.0)
    assert manager.pseudonym(10.0) != manager.pseudonym(310.0)


def test_pseudonym_differs_between_vehicles():
    a = PseudonymManager("VIN-A", b"secret", rotation_period_s=300.0)
    b = PseudonymManager("VIN-B", b"secret", rotation_period_s=300.0)
    assert a.pseudonym(0.0) != b.pseudonym(0.0)


def test_pseudonym_verify_with_clock_skew():
    manager = PseudonymManager("VIN-123", b"secret", rotation_period_s=300.0)
    token = manager.pseudonym(10.0)
    assert manager.verify(token, 10.0)
    assert manager.verify(token, 350.0)  # one epoch of skew allowed
    assert not manager.verify(token, 2000.0)
    assert not manager.verify("f" * 16, 10.0)


def test_pseudonym_validation():
    with pytest.raises(ValueError):
        PseudonymManager("v", b"", rotation_period_s=300.0)
    with pytest.raises(ValueError):
        PseudonymManager("v", b"s", rotation_period_s=0.0)


def test_location_fuzzer_snaps_to_cell_centre():
    fuzzer = LocationFuzzer(grid_m=500.0)
    assert fuzzer.generalize(10.0, 10.0) == (250.0, 250.0)
    assert fuzzer.generalize(499.0, 10.0) == (250.0, 250.0)
    assert fuzzer.generalize(501.0, 10.0) == (750.0, 250.0)


def test_location_fuzzer_error_bound():
    fuzzer = LocationFuzzer(grid_m=500.0)
    gx, gy = fuzzer.generalize(499.9, 499.9)
    displacement = ((gx - 499.9) ** 2 + (gy - 499.9) ** 2) ** 0.5
    # The worst case is a cell corner: half the cell diagonal away.
    assert displacement <= 500.0 * 2**0.5 / 2 + 1e-9


# -- data sharing -----------------------------------------------------------------


def test_sharing_requires_authentication():
    bus = DataSharingBus()
    bus.register_service("adas")
    bus.create_topic("camera", readers=["adas"], writers=["adas"])
    with pytest.raises(AccessDenied):
        bus.publish("adas", "wrong-token", "camera", b"frame")


def test_sharing_enforces_topic_acl():
    bus = DataSharingBus()
    cam_token = bus.register_service("camera-driver")
    spy_token = bus.register_service("spyware")
    bus.create_topic("camera", readers=["adas"], writers=["camera-driver"])
    bus.publish("camera-driver", cam_token, "camera", b"frame-0")
    with pytest.raises(AccessDenied):
        bus.read("spyware", spy_token, "camera")
    # The denial is audited.
    assert ("spyware", "read", "camera", False) in bus.audit


def test_sharing_read_and_grant_flow():
    bus = DataSharingBus()
    cam = bus.register_service("camera-driver")
    a3 = bus.register_service("a3")
    bus.create_topic("camera", readers=[], writers=["camera-driver"])
    bus.publish("camera-driver", cam, "camera", b"frame-0")
    with pytest.raises(AccessDenied):
        bus.read("a3", a3, "camera")
    bus.grant("camera", "a3", read=True)
    records = bus.read("a3", a3, "camera")
    assert [r.payload for r in records] == [b"frame-0"]


def test_sharing_revoke_cuts_access():
    bus = DataSharingBus()
    cam = bus.register_service("cam")
    bus.create_topic("t", readers=["cam"], writers=["cam"])
    bus.revoke("t", "cam")
    with pytest.raises(AccessDenied):
        bus.read("cam", cam, "t")


def test_sharing_subscription_delivers_only_to_authorized():
    bus = DataSharingBus()
    cam = bus.register_service("cam")
    a3 = bus.register_service("a3")
    recorder = bus.register_service("recorder")
    bus.create_topic("plates", readers=["recorder"], writers=["a3"])
    bus.register_service  # no-op

    seen = []
    bus.subscribe("recorder", recorder, "plates", lambda rec: seen.append(rec.payload))
    with pytest.raises(AccessDenied):
        bus.subscribe("cam", cam, "plates", lambda rec: None)
    bus.publish("a3", a3, "plates", "ABC-123")
    assert seen == ["ABC-123"]


def test_sharing_read_since_sequence():
    bus = DataSharingBus()
    w = bus.register_service("w")
    bus.create_topic("t", readers=["w"], writers=["w"])
    bus.publish("w", w, "t", "one")
    second = bus.publish("w", w, "t", "two")
    records = bus.read("w", w, "t", since=second.sequence)
    assert [r.payload for r in records] == ["two"]


def test_sharing_duplicate_registration_and_topic():
    bus = DataSharingBus()
    bus.register_service("s")
    with pytest.raises(ValueError):
        bus.register_service("s")
    bus.create_topic("t", readers=[], writers=[])
    with pytest.raises(ValueError):
        bus.create_topic("t", readers=[], writers=[])
