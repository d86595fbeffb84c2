"""Partition runtime: invariance, canonical delivery, determinism."""

from dataclasses import replace

import pytest

from repro.fleet import FleetConfig, PartitionRuntime, V2VBus, VehicleTraceHash
from repro.fleet.coordinator import run_inline
from repro.fleet.transport import Envelope
from repro.sim import SimulationError, Simulator

from ..integration.test_scenario import RetuneFault, fail_retune_from_call
from .misuse_fixtures import greedy_loop


def drive(config, partitions):
    """Run ``config`` over ``partitions`` in-process runtimes, exchanging
    envelopes at every barrier, and return merged per-vehicle hashes."""
    base = replace(config, partitions=partitions)
    runtimes = [PartitionRuntime(base.spec_for(p)) for p in range(partitions)]
    for runtime in runtimes:
        runtime.launch()
    inbound = ()
    for round_index, barrier_s in enumerate(base.barriers()):
        results = [r.advance(round_index, barrier_s, inbound)
                   for r in runtimes]
        inbound = tuple(e for res in results for e in res.outbound)
    hashes = {}
    for runtime in runtimes:
        hashes.update(runtime.vehicle_hashes())
    return hashes, runtimes


@pytest.fixture(scope="module")
def small_config():
    return FleetConfig(seed=11, vehicles=4, partitions=1, duration_s=6.0)


class TestPartitionInvariance:
    def test_hashes_identical_across_1_2_4_partitions(self, small_config):
        h1, _ = drive(small_config, 1)
        h2, _ = drive(small_config, 2)
        h4, _ = drive(small_config, 4)
        assert h1 == h2 == h4
        assert set(h1) == {0, 1, 2, 3}

    def test_same_config_reruns_identically(self, small_config):
        h_a, rts_a = drive(small_config, 2)
        h_b, rts_b = drive(small_config, 2)
        assert h_a == h_b
        assert [r.trace.hexdigest() for r in rts_a] == [
            r.trace.hexdigest() for r in rts_b
        ]

    def test_different_seed_different_traces(self, small_config):
        h_a, _ = drive(small_config, 1)
        other = replace(small_config, seed=12)
        h_b, _ = drive(other, 1)
        assert h_a != h_b


class TestAdvanceContract:
    def test_advance_before_launch_rejected(self, small_config):
        runtime = PartitionRuntime(small_config.spec_for(0))
        with pytest.raises(RuntimeError, match="before launch"):
            runtime.advance(0, 1.0)

    def test_double_launch_rejected(self, small_config):
        runtime = PartitionRuntime(small_config.spec_for(0))
        runtime.launch()
        with pytest.raises(RuntimeError, match="already launched"):
            runtime.launch()

    def test_stale_envelope_rejected(self, small_config):
        runtime = PartitionRuntime(small_config.spec_for(0))
        runtime.launch()
        runtime.advance(0, 1.0)
        stale = Envelope(src=1, dst=0, sent_s=0.2, deliver_s=0.7, seq=0,
                         payload="late")
        with pytest.raises(ValueError, match="conservative sync"):
            runtime.advance(1, 2.0, (stale,))

    def test_foreign_envelopes_ignored(self, small_config):
        config = replace(small_config, partitions=2)
        runtime = PartitionRuntime(config.spec_for(0))  # owns 0 and 2
        runtime.launch()
        foreign = Envelope(src=0, dst=1, sent_s=0.5, deliver_s=1.5, seq=0,
                           payload="not-mine")
        runtime.advance(0, 1.0, (foreign,))
        assert runtime.bus.received == 0
        assert runtime.sim.now == 1.0  # vdaplint: disable=FLT001

    @pytest.mark.parametrize("latency_s", [0.0, -0.5])
    def test_bus_rejects_non_positive_latency(self, latency_s):
        with pytest.raises(ValueError, match="V2V latency must be positive"):
            V2VBus(Simulator(), latency_s=latency_s, local=frozenset({0}))

    def test_process_bypassing_the_barrier_exchange_rejected(
        self, small_config
    ):
        # A sim process that drains and delivers the bus itself would
        # skip the coordinator's canonical envelope order.
        runtime = PartitionRuntime(small_config.spec_for(0))
        runtime.launch()
        runtime.sim.process(greedy_loop(runtime.sim, runtime.bus))
        with pytest.raises(SimulationError, match=r"deliver|drain_outbox"):
            runtime.advance(0, 1.0)

    def test_checkpoints_are_monotonic(self, small_config):
        runtime = PartitionRuntime(small_config.spec_for(0))
        runtime.launch()
        previous = None
        for round_index, barrier_s in enumerate(small_config.barriers()):
            ack = runtime.advance(round_index, barrier_s)
            assert ack.barrier_s == runtime.sim.now == barrier_s  # vdaplint: disable=FLT001
            progress = (runtime.sim.now, runtime.sim.events_fired)
            if previous is not None:
                assert progress[0] > previous[0]
                assert progress[1] >= previous[1]
            previous = progress


class TestVehicleTraceHash:
    def test_records_change_the_digest(self):
        a, b = VehicleTraceHash(0), VehicleTraceHash(0)
        assert a.hexdigest == b.hexdigest
        a.record_state(1.0, 3, 0, 12.5)
        assert a.hexdigest != b.hexdigest
        b.record_state(1.0, 3, 0, 12.5)
        assert a.hexdigest == b.hexdigest
        assert a.records == b.records == 1

    def test_send_and_receive_fold_differently(self):
        env = Envelope(src=0, dst=1, sent_s=0.5, deliver_s=1.5, seq=0,
                       payload="p")
        a, b = VehicleTraceHash(0), VehicleTraceHash(0)
        a.record_send(env)
        b.record_receive(env)
        assert a.hexdigest != b.hexdigest


class TestMetricsInvariance:
    def test_mergeable_views_match_across_partitionings(self, small_config):
        from repro.obs import merge_many, mergeable_view

        _, rts1 = drive(small_config, 1)
        _, rts2 = drive(small_config, 2)
        single = mergeable_view(
            merge_many([r.metrics_snapshot() for r in rts1])
        )
        sharded = mergeable_view(
            merge_many([r.metrics_snapshot() for r in rts2])
        )
        assert single == sharded


def test_a_raising_drive_loop_fails_an_inline_fleet(monkeypatch):
    fail_retune_from_call(monkeypatch, 6)
    with pytest.raises(RetuneFault, match="retune call 6"):
        run_inline(FleetConfig(seed=0, vehicles=8, partitions=2, duration_s=12.0))
