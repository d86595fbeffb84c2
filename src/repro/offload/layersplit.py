"""Layer-wise DNN partitioning between vehicle, edge and cloud.

The paper's EdgeOSv open problem (SIV-C, citing Neurosurgeon [27] and
Firework [17]): "dividing a workload into several parts and making them
execute on different edge nodes along the path from the source to the
cloud can get a better response latency and data transmission.  However,
how to dynamically divide workload on the edges is still a problem."

This module solves the single-chain instance: given a per-layer profile of
a DNN (compute per layer, activation size between layers), choose the cut
point -- run layers [0, k) on the vehicle, ship the layer-k activation,
run [k, n) remotely.  The interesting physics: early conv layers *inflate*
data (activations larger than the input), so the best cut is rarely after
layer 1; late layers have tiny activations but by then most compute is
already spent.  The optimum moves with bandwidth, which is exactly the
dynamic behaviour the paper wants.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hw.processor import ProcessorModel, WorkloadClass
from ..topology.nodes import Tier
from ..topology.world import World

__all__ = [
    "LayerProfile",
    "SplitDecision",
    "best_split",
    "inception_v3_layers",
    "speech_encoder_layers",
]


@dataclass(frozen=True)
class LayerProfile:
    """One layer: its compute cost and the size of its output activation."""

    name: str
    gflop: float
    output_bytes: float


def inception_v3_layers(input_bytes: float = 299 * 299 * 3) -> list[LayerProfile]:
    """A coarse per-stage profile of Inception v3 (11.4 GFLOPs total).

    Stage activation sizes follow the published architecture (fp32
    activations at each stage boundary); compute is grouped per stage.
    The early-stage inflation (stem output is ~4x the input bytes) and the
    late-stage collapse (pool output is 8 KB) are the features that make
    the split non-trivial.
    """
    return [
        LayerProfile("stem-conv", 1.2, 35 * 35 * 288 * 4.0),      # ~1.4 MB
        LayerProfile("inception-a", 2.1, 35 * 35 * 288 * 4.0),
        LayerProfile("reduction-a", 1.3, 17 * 17 * 768 * 4.0),    # ~0.9 MB
        LayerProfile("inception-b", 3.9, 17 * 17 * 768 * 4.0),
        LayerProfile("reduction-b", 1.0, 8 * 8 * 1280 * 4.0),     # ~0.3 MB
        LayerProfile("inception-c", 1.8, 8 * 8 * 2048 * 4.0),
        LayerProfile("pool-fc", 0.1, 1000 * 4.0),                 # 4 KB logits
    ]


def speech_encoder_layers(input_bytes: float = 320_000.0) -> list[LayerProfile]:
    """A speech/NLP encoder profile: activations shrink monotonically and
    compute concentrates in the late attention/decoder stages.

    This is the model family where Neurosurgeon-style *partial* splits
    genuinely win: early layers are cheap data reducers, so running just
    them locally slashes the upload without paying much compute.  (CNNs
    like Inception, whose early activations are *larger* than the input,
    split optimally at the extremes instead.)
    """
    return [
        LayerProfile("frontend", 0.5, 256_000.0),
        LayerProfile("conv-sub", 1.0, 128_000.0),
        LayerProfile("encoder-1", 1.5, 64_000.0),
        LayerProfile("encoder-2", 4.0, 16_000.0),
        LayerProfile("decoder", 5.0, 1_000.0),
    ]


@dataclass(frozen=True)
class SplitDecision:
    """Outcome: cut index k (layers [0, k) local), latency breakdown."""

    cut: int
    remote_tier: str
    latency_s: float
    local_compute_s: float
    transfer_s: float
    remote_compute_s: float
    uplink_bytes: float

def _compute_time(
    processor: ProcessorModel, gflop: float, workload: WorkloadClass
) -> float:
    if gflop == 0.0:
        return 0.0
    return processor.execution_time(gflop, workload)


def best_split(
    layers: list[LayerProfile],
    world: World,
    input_bytes: float,
    remote_tier: str = Tier.EDGE,
    workload: WorkloadClass = WorkloadClass.DNN,
) -> SplitDecision:
    """Latency-optimal cut point for one inference.

    Cut k = 0 ships the raw input and runs everything remotely; k = n runs
    everything on the vehicle.  The result of the final layer is assumed
    small enough that the return transfer uses the layer profile's last
    output (e.g. logits).
    """
    if not layers:
        raise ValueError("need at least one layer")
    if remote_tier not in (Tier.EDGE, Tier.CLOUD):
        raise ValueError(f"remote tier must be edge or cloud, got {remote_tier!r}")
    vehicle_proc = world.vehicle.best_processor_for(workload)
    remote_proc = world.node_for_tier(remote_tier).best_processor_for(workload)
    if vehicle_proc is None or remote_proc is None:
        raise ValueError("both vehicle and remote need a DNN-capable processor")
    link = world.links.between(Tier.VEHICLE, remote_tier)
    result_bytes = layers[-1].output_bytes

    best = None
    n = len(layers)
    for cut in range(n + 1):
        local_gflop = sum(layer.gflop for layer in layers[:cut])
        remote_gflop = sum(layer.gflop for layer in layers[cut:])
        local_s = _compute_time(vehicle_proc, local_gflop, workload)
        remote_s = _compute_time(remote_proc, remote_gflop, workload)
        if cut == n:
            transfer_s = 0.0
            uplink = 0.0
            remote_s = 0.0
        else:
            uplink = input_bytes if cut == 0 else layers[cut - 1].output_bytes
            transfer_s = link.transfer_time(uplink) + link.transfer_time(result_bytes)
        latency = local_s + transfer_s + remote_s
        if best is None or latency < best.latency_s:
            best = SplitDecision(
                cut=cut,
                remote_tier=remote_tier,
                latency_s=latency,
                local_compute_s=local_s,
                transfer_s=transfer_s,
                remote_compute_s=remote_s,
                uplink_bytes=uplink,
            )
    return best
