"""Tests for the DSF control knob and remaining VCU surfaces."""

import pytest

from repro.hw import catalog
from repro.libvdap import pbeam_size_report
from repro.nn import make_mlp, prune
from repro.sim import Simulator
from repro.vcu import DSF, MHEP


def platform():
    sim = Simulator()
    mhep = MHEP(sim)
    mhep.register(catalog.intel_i7_6700())
    return sim, mhep, mhep.device("Intel i7-6700").resource


def test_control_knob_grants_exclusive_device_access():
    """Paper SIV-B2: 'DSF also provides the access interfaces of all
    computing resources, which we called control knob.'  Each registered
    device's resource is that interface."""
    sim, _mhep, knob = platform()
    log = []

    def holder(sim):
        grant = knob.request()
        yield grant
        log.append(("held", sim.now))
        yield sim.timeout(5.0)
        knob.release(grant)

    def contender(sim):
        yield sim.timeout(1.0)
        grant = knob.request()
        yield grant
        log.append(("contender", sim.now))
        knob.release(grant)

    sim.process(holder(sim))
    sim.process(contender(sim))
    sim.run()
    assert log == [("held", 0.0), ("contender", 5.0)]


def test_control_knob_priority():
    sim, _mhep, knob = platform()
    order = []

    def holder(sim):
        grant = knob.request()
        yield grant
        yield sim.timeout(2.0)
        knob.release(grant)

    def requester(sim, tag, priority, delay):
        yield sim.timeout(delay)
        grant = knob.request(priority=priority)
        yield grant
        order.append(tag)
        knob.release(grant)

    sim.process(holder(sim))
    sim.process(requester(sim, "low", 5, 0.5))
    sim.process(requester(sim, "high", 0, 1.0))
    sim.run()
    assert order == ["high", "low"]


def test_unknown_device_raises():
    _sim, mhep, _knob = platform()
    with pytest.raises(KeyError):
        mhep.device("Quantum Annealer")


def test_dsf_policy_validation():
    sim = Simulator()
    mhep = MHEP(sim)
    with pytest.raises(ValueError):
        DSF(sim, mhep, policy="vibes")


def test_pbeam_size_report_reflects_pruning():
    model = make_mlp(6, (48,), 4, seed=0)
    dense = pbeam_size_report(model, bits=32)
    prune(model, 0.7)
    sparse = pbeam_size_report(model, bits=5)
    assert sparse.compressed_bytes < dense.compressed_bytes
    assert sparse.sparsity == pytest.approx(0.7, abs=0.05)
