"""A7 -- layer-wise DNN split: the cut point migrates with bandwidth.

The paper's open problem (SIV-C, citing Neurosurgeon): "how to dynamically
divide workload on the edges is still a problem."  Two model families show
the two characteristic behaviours:

* **Inception v3** (CNN) -- early activations are *larger* than the input,
  so the optimum sits at the extremes and flips from all-remote to
  all-local as the link degrades;
* **speech encoder** -- activations shrink monotonically, so genuine
  partial splits win, and the cut slides layer by layer toward the
  vehicle as bandwidth falls.
"""

import pytest

from conftest import persist_report
from repro.hw import catalog
from repro.obs import Report
from repro.offload import best_split, inception_v3_layers, speech_encoder_layers
from repro.topology import build_default_world

BANDWIDTHS = (27.0, 10.0, 5.0, 1.0, 0.1)
INCEPTION_INPUT = 299 * 299 * 3.0  # compressed-ish camera frame
SPEECH_INPUT = 320_000.0           # 2 s of fp32 audio features


def sweep():
    world = build_default_world(vehicle_processors=[catalog.intel_mncs()])
    rows = []
    for model_name, layers, input_bytes in (
        ("inception_v3", inception_v3_layers(), INCEPTION_INPUT),
        ("speech_encoder", speech_encoder_layers(), SPEECH_INPUT),
    ):
        for bandwidth in BANDWIDTHS:
            world.links.vehicle_edge.bandwidth_mbps = bandwidth
            split = best_split(layers, world, input_bytes)
            rows.append(
                (model_name, bandwidth, split.cut, len(layers),
                 split.latency_s, split.uplink_bytes)
            )
    return rows


def test_layersplit_crossover(benchmark):
    rows = benchmark(sweep)

    report = Report(
        "ablate_layersplit",
        "A7 -- latency-optimal layer split vs vehicle<->edge bandwidth "
        "(weak on-board VPU)",
    )
    report.add_column("model", 16)
    report.add_column("bandwidth", 15, ".2f", header="bandwidth Mbps")
    report.add_column("cut", 7, align="right")
    report.add_column("latency_ms", 12, ".1f", header="latency ms")
    report.add_column("uplink_kb", 11, ".0f", header="uplink KB")
    for model, bandwidth, cut, n, latency, uplink in rows:
        report.add_row(
            model=model, bandwidth=bandwidth, cut=f"{cut}/{n}",
            latency_ms=latency * 1e3, uplink_kb=uplink / 1e3,
        )
    persist_report(report)

    inception = [(bw, cut) for m, bw, cut, *_r in rows if m == "inception_v3"]
    speech = [(bw, cut) for m, bw, cut, *_r in rows if m == "speech_encoder"]

    # Both families: the cut moves monotonically toward the vehicle as
    # bandwidth degrades, ending fully local on a dead link.
    for series, n in ((inception, 7), (speech, 5)):
        cuts = [cut for _bw, cut in series]
        assert cuts == sorted(cuts)
        assert cuts[0] < cuts[-1]
        assert cuts[-1] == n
    # Inception flips at the extremes (no partial split is ever optimal)...
    assert all(cut in (0, 7) for _bw, cut in inception)
    # ...while the speech encoder exhibits genuine partial splits.
    assert any(0 < cut < 5 for _bw, cut in speech)
    # The cuts EXPERIMENTS.md states, bandwidth by bandwidth.
    assert inception == [(27.0, 0), (10.0, 0), (5.0, 7), (1.0, 7), (0.1, 7)]
    assert speech == [(27.0, 2), (10.0, 3), (5.0, 3), (1.0, 5), (0.1, 5)]
