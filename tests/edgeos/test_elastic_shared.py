"""Shared pipeline evaluations: the copies of one service score once.

:meth:`~repro.edgeos.elastic.ElasticManager.evaluate_pipelines` keeps
its last result and hands it to the next service whose scoring inputs
are equal.  A scoring does not read the service's state, incumbent or
deadline, so copies that differ only in those must share it, and must
still decide exactly as a manager that scores each of them afresh.
"""

import pytest

from repro.apps import make_adas_service
from repro.edgeos import ElasticManager, HealthWatchdog, ServiceState
from repro.offload.placement import CompiledPlacement
from repro.scenario import DriveScenario
from repro.topology import build_default_world

from .test_elastic import a3_service

GOOD_BW, SOFT_BW, DEAD_BW = 27.0, 10.0, 0.01


@pytest.fixture
def evaluations(monkeypatch):
    """The number of ``CompiledPlacement.evaluate`` calls so far."""
    calls = [0]
    real = CompiledPlacement.evaluate

    def counting(self, links):
        calls[0] += 1
        return real(self, links)

    monkeypatch.setattr(CompiledPlacement, "evaluate", counting)
    return calls


def variants():
    """Four copies of the a3 service that differ in deadline or state."""
    services = [a3_service(deadline=4.0) for _ in range(4)]
    services[1].deadline_s = 1e-6  # hangs whatever the links
    services[2].deadline_s = 0.078  # met by "split" (75 ms), not "onboard" (81 ms)
    services[3].state = ServiceState.COMPROMISED
    for copy, service in enumerate(services):
        service.name = f"{service.name}#{copy}"
    return services


def test_copies_differing_in_deadline_or_state_share_one_scoring(evaluations):
    world = build_default_world()
    dog = HealthWatchdog()
    dog.register("tier:edge", now_s=0.0)
    manager = ElasticManager()
    mine, theirs = variants(), variants()
    for service in mine:
        manager.register(service)
    outcomes = set()
    steps = [
        ("good", lambda: None),
        ("soft", lambda: setattr(world.links.vehicle_edge, "bandwidth_mbps", SOFT_BW)),
        ("dead", lambda: setattr(world.links.vehicle_edge, "bandwidth_mbps", DEAD_BW)),
        ("edge down", lambda: (
            setattr(world.links.vehicle_edge, "bandwidth_mbps", GOOD_BW),
            dog.sweep(100.0),
        )),
        ("edge back", lambda: dog.heartbeat("tier:edge", 101.0)),
    ]
    for label, mutate in steps:
        mutate()
        # A compromised copy is resumed by the choice; compromise it again.
        mine[3].state = theirs[3].state = ServiceState.COMPROMISED
        scored = 0
        for _tick in range(2):
            expected = [
                ElasticManager().choose(other, world, health=dog) for other in theirs
            ]
            before = evaluations[0]
            got = [manager.choose(ours, world, health=dog) for ours in mine]
            scored += evaluations[0] - before
            assert got == expected, label
            for ours, other in zip(mine, theirs):
                assert ours.state is other.state, label
                assert ours.active_pipeline == other.active_pipeline, label
                assert ours.hang_count == other.hang_count, label
            outcomes.update(
                (copy, choice.pipeline, choice.hung) for copy, choice in enumerate(got)
            )
        # One scoring of the pipelines still healthy, for the whole step.
        assert scored == (1 if label == "edge down" else 3), label
    # The copies decide differently from one shared scoring.
    assert {(0, "split", False), (0, "onboard", False), (1, None, True),
            (2, "split", False), (2, None, True), (3, "onboard", False)} <= outcomes


def test_a_heavy_vehicle_scores_once_per_link_change(evaluations, monkeypatch):
    links_seen = []
    real_retune = ElasticManager.retune

    def recording(self, world, health=None):
        links = world.links
        links_seen.append(tuple(
            (link.bandwidth_mbps, link.rtt_s, link.loss_rate)
            for link in (links.vehicle_edge, links.vehicle_cloud, links.edge_cloud)
        ))
        return real_retune(self, world, health=health)

    monkeypatch.setattr(ElasticManager, "retune", recording)
    scenario = DriveScenario(seed=3, label="heavy")
    for copy in range(7):
        service = make_adas_service(deadline_s=0.6)
        if copy:
            service.name = f"{service.name}#{copy}"
        scenario.add_service(service)
    scenario.run(60.0)
    changes = sum(
        1 for i, seen in enumerate(links_seen) if i == 0 or seen != links_seen[i - 1]
    )
    assert 1 < changes < len(links_seen)
    # Three ADAS pipelines, scored once per link state for all 7 copies.
    assert evaluations[0] == 3 * changes
