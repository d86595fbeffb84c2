"""Absolute golden per-vehicle trace hashes.

Every other fleet identity gate is relative (fleet vs reference, run vs
rerun), so a change that moves both sides together still passes them.
This module pins the hashes themselves: ``golden_hashes.json`` holds the
per-vehicle trace hash of each corpus entry, and every entry is replayed
through both the single-process reference and an inline run on four
partitions.  Every partition of those runs must also finish with no DSF
grant held or queued (the ``audited_partitions`` fixture).

Re-baseline policy: an *intended* behaviour change regenerates the file
with ``PYTHONPATH=src python tests/fleet/test_golden_hashes.py
--regenerate`` and commits it, so the moved hashes show up in the diff
for review.  An unintended change fails here.
"""

import hashlib
import json
import os
import sys
from dataclasses import replace

import pytest

from repro.fleet.config import FleetConfig
from repro.fleet.coordinator import run_inline, run_single_process
from repro.fleet.runtime import PartitionRuntime

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden_hashes.json")

#: (seed, workload, vehicles) for every corpus entry.
CORPUS = [
    (seed, workload, vehicles)
    for seed in (0, 1, 2)
    for workload in ("uniform", "skewed")
    for vehicles in (8, 32)
]


def entry_config(seed: int, workload: str, vehicles: int) -> FleetConfig:
    return FleetConfig(seed=seed, vehicles=vehicles, partitions=1,
                       workload=workload)


def entry_key(seed: int, workload: str, vehicles: int) -> str:
    return f"seed={seed},workload={workload},vehicles={vehicles}"


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def regenerate() -> None:
    """Rewrite ``golden_hashes.json`` from the single-process reference."""
    document = {}
    for seed, workload, vehicles in CORPUS:
        result = run_single_process(entry_config(seed, workload, vehicles))
        document[entry_key(seed, workload, vehicles)] = {
            str(v): h for v, h in result.vehicle_hashes.items()
        }
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def test_corpus_covers_every_entry():
    assert sorted(load_golden()) == sorted(entry_key(*e) for e in CORPUS)


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: entry_key(*e))
def test_reference_matches_golden(entry, audited_partitions):
    expected = load_golden()[entry_key(*entry)]
    result = run_single_process(entry_config(*entry))
    assert {str(v): h for v, h in result.vehicle_hashes.items()} == expected
    assert audited_partitions == [0]


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: entry_key(*e))
def test_four_partition_run_matches_golden(entry, audited_partitions):
    expected = load_golden()[entry_key(*entry)]
    config = replace(entry_config(*entry), partitions=4)
    result = run_inline(config)
    assert {str(v): h for v, h in result.vehicle_hashes.items()} == expected
    assert sorted(audited_partitions) == [0, 1, 2, 3]


#: Absolute kernel trace pins for two corpus entries, as
#: ``(seed, workload, vehicles, partitions): (events_fired,
#: partition_hashes)``.  A partition hash folds every event its kernel
#: fired (order, time bits, kind, name), so these pin the shared kernel's
#: firing order, which the per-vehicle hashes above do not cover.  An
#: intended behaviour change updates them by hand from the failure.
KERNEL_PINS = {
    (0, "uniform", 8, 4): (347, {
        0: "e54276b491edf5f46631b804d1ec4886",
        1: "8ed4af92b756f41a428b3bbd3631569e",
        2: "e57e4a49c99fbf9960772d8db9988e78",
        3: "0e87668461f85073d4c82fd03eee7e7f",
    }),
    (1, "skewed", 32, 1): (1967, {
        0: "4f3d39d4c39f8ee357517b9fab287c4d",
    }),
}


@pytest.mark.parametrize("pin", sorted(KERNEL_PINS), ids=str)
def test_kernel_trace_matches_pins(pin):
    seed, workload, vehicles, partitions = pin
    events_fired, partition_hashes = KERNEL_PINS[pin]
    config = replace(entry_config(seed, workload, vehicles),
                     partitions=partitions)
    result = run_inline(config)
    assert result.stats.events_fired == events_fired
    assert result.partition_hashes == partition_hashes


#: SHA-256 of ``json.dumps(runtime.metrics_snapshot(), sort_keys=True)``
#: for every partition of one corpus entry, as ``(seed, workload,
#: vehicles, partitions): {partition: digest}``.  It pins the whole
#: mergeable metric state a partition ships (every series name, label
#: set and value), so a record dropped, doubled or moved to another
#: series fails here; the relative checks and ``mergeable_view`` do not
#: see a change that moves reference and fleet together.  An intended
#: metrics change updates it by hand from the failure.
PARTITION_METRICS_PINS = {
    (1, "skewed", 32, 1): {
        0: "2a223581f916badda043005ce8adfabc2ef8ac368ab854b34ff956e56e89e7b8",
    },
}


@pytest.mark.parametrize("pin", sorted(PARTITION_METRICS_PINS), ids=str)
def test_partition_metrics_match_pins(pin, monkeypatch):
    seed, workload, vehicles, partitions = pin
    digests = {}
    finish = PartitionRuntime.finish

    def finish_and_digest(runtime):
        ack = finish(runtime)
        state = json.dumps(runtime.metrics_snapshot(), sort_keys=True)
        digests[runtime.spec.partition] = hashlib.sha256(
            state.encode("utf-8")).hexdigest()
        return ack

    monkeypatch.setattr(PartitionRuntime, "finish", finish_and_digest)
    run_inline(replace(entry_config(seed, workload, vehicles),
                       partitions=partitions))
    assert digests == PARTITION_METRICS_PINS[pin]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: test_golden_hashes.py --regenerate")
    regenerate()
