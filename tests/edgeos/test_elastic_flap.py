"""Elastic Management under an oscillating link: it follows, never sticks.

The DSRC link flapping around a QoS threshold is the paper's SIII-A
"unstable connection" scenario.  These tests pin how
:class:`~repro.edgeos.elastic.ElasticManager` behaves under it:

* the service takes the best pipeline on every flap, however small the
  margin between the pipelines;
* hang-up is never sticky -- a service hung during a bad phase resumes
  as soon as a good phase returns, and ``degrade_before_hang`` keeps it
  serving (best-effort) right through the bad phases.
"""

from repro.edgeos import ElasticManager, ServiceState
from repro.hw import catalog
from repro.topology import build_default_world

from .test_elastic import a3_service

GOOD_BW = 27.0  # split pipeline wins (barely)
SOFT_BW = 10.0  # onboard pipeline wins (barely)
DEAD_BW = 0.01  # nothing involving the link meets any deadline


def oscillate(manager, service, world, cycles, low_bw):
    """Alternate the v2x links between GOOD_BW and ``low_bw``."""
    choices = []
    for _ in range(cycles):
        for bw in (GOOD_BW, low_bw):
            world.links.vehicle_edge.bandwidth_mbps = bw
            world.links.vehicle_cloud.bandwidth_mbps = bw
            choices.append(manager.choose(service, world))
    return choices


def test_the_pipeline_follows_every_flap():
    cycles = 20
    world = build_default_world()
    manager = ElasticManager()
    service = a3_service(deadline=4.0)
    manager.register(service)
    choices = oscillate(manager, service, world, cycles, SOFT_BW)
    # The best pipeline flips on every half-cycle, and the service with it.
    assert [c.pipeline for c in choices] == ["split", "onboard"] * cycles
    assert all(c.switched and not c.hung for c in choices)
    assert manager.switches == 2 * cycles
    assert service.state is ServiceState.RUNNING


def test_hang_is_never_sticky_across_link_flaps():
    cycles = 5
    # A weak vehicle: the deadline is only attainable with edge help, so
    # the dead phases genuinely force a hang-up.
    world = build_default_world(vehicle_processors=[catalog.onboard_controller()])
    manager = ElasticManager()
    service = a3_service(deadline=0.7)
    manager.register(service)

    choices = oscillate(manager, service, world, cycles, DEAD_BW)
    good_phases = choices[0::2]
    dead_phases = choices[1::2]
    assert all(not c.hung for c in good_phases)  # every recovery resumes
    assert all(c.hung for c in dead_phases)
    assert service.state is ServiceState.HUNG  # sequence ends on a dead phase

    world.links.vehicle_edge.bandwidth_mbps = GOOD_BW
    world.links.vehicle_cloud.bandwidth_mbps = GOOD_BW
    final = manager.choose(service, world)
    assert not final.hung and final.switched
    assert service.state is ServiceState.RUNNING
    assert service.hang_count == cycles  # one hang per dead phase, no extras


def test_degraded_mode_serves_through_the_bad_phases():
    cycles = 5
    world = build_default_world(vehicle_processors=[catalog.onboard_controller()])
    manager = ElasticManager(degrade_before_hang=True)
    service = a3_service(deadline=0.7)
    manager.register(service)

    choices = oscillate(manager, service, world, cycles, DEAD_BW)
    assert all(not c.hung for c in choices)  # never goes dark
    assert service.hang_count == 0
    dead_phases = choices[1::2]
    assert all(c.degraded and c.pipeline == "onboard" for c in dead_phases)
    good_phases = choices[0::2]
    assert all(not c.degraded for c in good_phases)
    # The oscillation ended on a dead phase; one good retune fully restores.
    world.links.vehicle_edge.bandwidth_mbps = GOOD_BW
    world.links.vehicle_cloud.bandwidth_mbps = GOOD_BW
    (restored,) = manager.retune(world)
    assert not restored.degraded and not restored.hung
    assert service.state is ServiceState.RUNNING
