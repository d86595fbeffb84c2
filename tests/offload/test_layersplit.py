"""Tests for layer-wise DNN partitioning (the Neurosurgeon-style split)."""

import pytest

from repro.hw import catalog
from repro.offload import LayerProfile, best_split, inception_v3_layers
from repro.topology import Tier, build_default_world

INPUT_BYTES = 299 * 299 * 3.0


def weak_vehicle_world():
    return build_default_world(vehicle_processors=[catalog.intel_mncs()])


def strong_vehicle_world():
    return build_default_world(
        vehicle_processors=[catalog.jetson_tx2_maxp(), catalog.intel_i7_6700()]
    )


def test_layer_profile_totals():
    layers = inception_v3_layers()
    assert sum(l.gflop for l in layers) == pytest.approx(11.4)
    # The stem inflates activations above the input size.
    assert layers[0].output_bytes > INPUT_BYTES
    # The final output is tiny (logits).
    assert layers[-1].output_bytes < 10_000


def test_best_split_validation():
    world = weak_vehicle_world()
    with pytest.raises(ValueError):
        best_split([], world, INPUT_BYTES)
    with pytest.raises(ValueError):
        best_split(inception_v3_layers(), world, INPUT_BYTES, remote_tier=Tier.VEHICLE)


def test_split_latency_accounts_all_components():
    world = weak_vehicle_world()
    decision = best_split(inception_v3_layers(), world, INPUT_BYTES)
    total = (decision.local_compute_s + decision.transfer_s
             + decision.remote_compute_s)
    assert decision.latency_s == pytest.approx(total)


def test_weak_vehicle_fast_link_prefers_heavy_offload():
    """With a feeble VPU and 27 Mbps DSRC, most layers go to the edge."""
    world = weak_vehicle_world()
    decision = best_split(inception_v3_layers(), world, INPUT_BYTES)
    assert decision.cut <= 1
    assert decision.remote_compute_s > 0


def test_strong_vehicle_slow_link_stays_local():
    """A Jetson on board with a dying link: run everything locally."""
    world = strong_vehicle_world()
    world.links.vehicle_edge.bandwidth_mbps = 0.05
    decision = best_split(inception_v3_layers(), world, INPUT_BYTES)
    assert decision.cut == len(inception_v3_layers())
    assert decision.transfer_s == 0.0 and decision.remote_compute_s == 0.0


def test_split_point_moves_with_bandwidth():
    """The crossover the paper wants: the cut migrates toward the vehicle
    as bandwidth degrades."""
    world = weak_vehicle_world()
    cuts = []
    for bandwidth in (27.0, 2.0, 0.2, 0.02):
        world.links.vehicle_edge.bandwidth_mbps = bandwidth
        cuts.append(best_split(inception_v3_layers(), world, INPUT_BYTES).cut)
    assert cuts[0] < cuts[-1]
    assert cuts == sorted(cuts)


def test_mid_split_never_cuts_at_inflated_activation():
    """Cutting right after the stem ships MORE bytes than the raw input;
    the optimizer must never pick a cut strictly worse than cut=0."""
    world = weak_vehicle_world()
    layers = inception_v3_layers()
    for bandwidth in (27.0, 5.0, 1.0):
        world.links.vehicle_edge.bandwidth_mbps = bandwidth
        decision = best_split(layers, world, INPUT_BYTES)
        if 0 < decision.cut < len(layers):
            assert decision.uplink_bytes <= INPUT_BYTES


def test_cloud_split_pays_wan_latency():
    world = weak_vehicle_world()
    edge = best_split(inception_v3_layers(), world, INPUT_BYTES, remote_tier=Tier.EDGE)
    cloud = best_split(inception_v3_layers(), world, INPUT_BYTES, remote_tier=Tier.CLOUD)
    assert edge.latency_s < cloud.latency_s


def test_single_layer_chain():
    world = strong_vehicle_world()
    layers = [LayerProfile("only", 5.0, 1000.0)]
    decision = best_split(layers, world, INPUT_BYTES)
    assert decision.cut in (0, 1)


def test_speech_encoder_profile_shape():
    from repro.offload import speech_encoder_layers

    layers = speech_encoder_layers()
    sizes = [layer.output_bytes for layer in layers]
    # Monotonically shrinking activations; compute concentrated late.
    assert sizes == sorted(sizes, reverse=True)
    assert layers[-1].gflop + layers[-2].gflop > sum(
        l.gflop for l in layers[:3]
    )


def test_speech_encoder_admits_partial_splits():
    from repro.offload import speech_encoder_layers

    world = weak_vehicle_world()
    world.links.vehicle_edge.bandwidth_mbps = 10.0
    decision = best_split(speech_encoder_layers(), world, 320_000.0)
    assert 0 < decision.cut < 5
    # The partial split ships less than the raw input.
    assert decision.uplink_bytes < 320_000.0
