"""Elastic Management's decision memo against a manager with no memory.

:meth:`~repro.edgeos.elastic.ElasticManager.choose` returns a service's
previous decision when nothing the decision reads has changed.  The
differential test below drives two managers through one scripted drive
that moves every input the memo keys on, one at a time: a long-lived
manager (memo and compiled plans warm) and, per call, a fresh
``ElasticManager`` that has to re-score from scratch.  Every step must
yield equal choices, service states, incumbents, hang counts and switch
counts.  Each side manages two copies of one service built from a shared
graph factory, so the copies also share compiled plans.
"""

from repro.edgeos import ElasticManager, HealthWatchdog, ServiceState
from repro.hw import catalog
from repro.net.channel import LinkModel
from repro.topology import build_default_world

from .test_elastic import a3_service

GOOD_BW = 27.0  # split pipeline wins (barely)
SOFT_BW = 10.0  # onboard pipeline wins (barely)
DEAD_BW = 0.01  # nothing involving the link meets any deadline


#: Steps that leave every input of the memo key as it was.
NO_CHANGE = ("value-preserving write", "compromised and restored between ticks")


def copies(deadline):
    """Two copies of the a3 service sharing one graph factory."""
    first = a3_service(deadline=deadline)
    second = a3_service(deadline=deadline)
    second.name = f"{second.name}#1"
    return [first, second]


def set_bw(world, bw):
    world.links.vehicle_edge.bandwidth_mbps = bw
    world.links.vehicle_cloud.bandwidth_mbps = bw


def both(services, **changes):
    for service in services:
        for name, value in changes.items():
            setattr(service, name, value)


def script(world, dog, memo, mine, theirs):
    """``(label, mutation)`` steps; each moves one input of the memo key.

    ``mine`` and ``theirs`` are the two sides' service lists; a mutation
    applies to both sides alike (``policy`` changes go to the long-lived
    manager, and the reference side reads them back from it).
    """
    services = mine + theirs

    def margin(value):
        memo.switch_margin = value

    def degrade(value):
        memo.degrade_before_hang = value

    return [
        ("initial", lambda: None),
        ("bandwidth drop", lambda: set_bw(world, SOFT_BW)),
        ("value-preserving write", lambda: set_bw(world, SOFT_BW)),
        ("bandwidth recovers", lambda: set_bw(world, GOOD_BW)),
        ("link replaced by an estimate", lambda: setattr(
            world.links, "vehicle_edge",
            LinkModel("estimated", bandwidth_mbps=DEAD_BW, rtt_s=0.004),
        )),
        ("estimate recovers", lambda: setattr(
            world.links, "vehicle_edge",
            LinkModel("estimated", bandwidth_mbps=GOOD_BW, rtt_s=0.004),
        )),
        ("edge tier goes down", lambda: dog.sweep(100.0)),
        ("edge tier comes back", lambda: dog.heartbeat("tier:edge", 101.0)),
        ("deadline too tight", lambda: both(services, deadline_s=1e-6)),
        ("deadline relaxed", lambda: both(services, deadline_s=4.0)),
        # Inputs seen two steps back: the hang happens and counts again.
        ("deadline too tight again", lambda: both(services, deadline_s=1e-6)),
        ("deadline relaxed again", lambda: both(services, deadline_s=4.0)),
        ("compromised", lambda: both(services, state=ServiceState.COMPROMISED)),
        ("compromised and restored between ticks", lambda: (
            both(services, state=ServiceState.COMPROMISED),
            both(services, state=ServiceState.RUNNING),
        )),
        ("incumbent cleared", lambda: both(services, active_pipeline=None)),
        ("hysteresis on", lambda: margin(0.3)),
        ("flap down under hysteresis", lambda: set_bw(world, SOFT_BW)),
        ("flap up under hysteresis", lambda: set_bw(world, GOOD_BW)),
        ("hysteresis off", lambda: margin(0.0)),
        ("flap down", lambda: set_bw(world, SOFT_BW)),
        ("degraded mode on", lambda: degrade(True)),
        ("deadline unreachable, degraded", lambda: both(services, deadline_s=1e-6)),
        ("degraded mode off", lambda: degrade(False)),
        ("degraded mode on again", lambda: degrade(True)),
        ("deadline relaxed under degraded mode", lambda: both(
            services, deadline_s=4.0)),
        ("link dead", lambda: set_bw(world, DEAD_BW)),
        ("link back", lambda: set_bw(world, GOOD_BW)),
    ]


def test_memo_matches_a_manager_without_memory():
    world = build_default_world()
    dog = HealthWatchdog()
    dog.register("tier:edge", now_s=0.0)
    memo = ElasticManager()
    mine, theirs = copies(4.0), copies(4.0)
    for service in mine:
        memo.register(service)
    rescored = []
    original = memo.evaluate_pipelines

    def counting(service, world, health=None):
        rescored.append(service.name)
        return original(service, world, health=health)

    memo.evaluate_pipelines = counting
    reference_switches = 0
    outcomes = set()
    for label, mutate in script(world, dog, memo, mine, theirs):
        mutate()
        rescored.clear()
        # Three ticks per step: a switching decision changes the service,
        # so the second tick re-scores once more and the third must not.
        for tick in range(3):
            if tick == 2:
                assert bool(rescored) == (label not in NO_CHANGE), label
                rescored.clear()
            for ours, other in zip(mine, theirs):
                fresh = ElasticManager(
                    goal=memo.goal,
                    switch_margin=memo.switch_margin,
                    degrade_before_hang=memo.degrade_before_hang,
                )
                expected = fresh.choose(other, world, health=dog)
                reference_switches += fresh.switches
                got = memo.choose(ours, world, health=dog)
                outcomes.add((got.pipeline, got.hung, got.degraded))
                assert got == expected, label
                assert ours.state is other.state, label
                assert ours.active_pipeline == other.active_pipeline, label
                assert ours.hang_count == other.hang_count, label
            assert memo.switches == reference_switches, label
        assert not rescored, label

    # The script reaches every kind of outcome.
    assert {(None, True, False), ("onboard", False, False),
            ("onboard", False, True), ("split", False, False)} <= outcomes
    assert all(service.hang_count == 2 for service in mine)


def test_an_unchanged_tick_returns_the_kept_decision():
    world = build_default_world()
    manager = ElasticManager()
    service = a3_service(deadline=4.0)
    manager.register(service)
    assert manager.choose(service, world).switched  # first pick
    kept = manager.choose(service, world)
    assert not kept.switched
    assert manager.choose(service, world) is kept
    # Writing the value a link already has is not a change.
    world.links.vehicle_edge.bandwidth_mbps = world.links.vehicle_edge.bandwidth_mbps
    assert manager.choose(service, world) is kept
    # Another world object with equal values is a different world.
    assert manager.choose(service, build_default_world()) is not kept


def test_a_decision_with_side_effects_is_never_kept():
    # A weak vehicle: nothing meets the deadline once the link dies.
    world = build_default_world(vehicle_processors=[catalog.onboard_controller()])
    manager = ElasticManager()
    service = a3_service(deadline=0.7)
    manager.register(service)
    manager.choose(service, world)
    incumbent = service.active_pipeline
    set_bw(world, DEAD_BW)
    assert manager.choose(service, world).hung
    assert service.hang_count == 1 and manager.switches == 2  # pick, hang
    # Put the service back as the hanging call found it: the inputs are
    # the same, and the hang is derived again, side effects included.
    service.state, service.active_pipeline = ServiceState.RUNNING, incumbent
    assert manager.choose(service, world).hung
    assert service.state is ServiceState.HUNG
    assert service.hang_count == 2 and manager.switches == 3
    # From HUNG the same inputs are a fixed point: no new hang or switch.
    again = manager.choose(service, world)
    assert again.hung and not again.switched
    assert service.hang_count == 2 and manager.switches == 3
    assert manager.choose(service, world) is again


def test_a_state_change_without_a_switch_is_never_kept():
    world = build_default_world()
    manager = ElasticManager()
    service = a3_service(deadline=4.0)
    manager.register(service)
    manager.choose(service, world)
    # Resuming a compromised service keeps its pipeline but changes its
    # state, so each time it happens it is derived, not replayed.
    for _ in range(2):
        service.state = ServiceState.COMPROMISED
        assert not manager.choose(service, world).switched
        assert service.state is ServiceState.RUNNING

