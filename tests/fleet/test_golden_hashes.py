"""Absolute golden per-vehicle trace hashes.

Every other fleet identity gate is relative (fleet vs reference, run vs
rerun), so a change that moves both sides together still passes them.
This module pins the hashes themselves: ``golden_hashes.json`` holds the
per-vehicle trace hash of each corpus entry, and every entry is replayed
through both the single-process reference and an inline run on four
partitions.

Re-baseline policy: an *intended* behaviour change regenerates the file
with ``PYTHONPATH=src python tests/fleet/test_golden_hashes.py
--regenerate`` and commits it, so the moved hashes show up in the diff
for review.  An unintended change fails here.
"""

import json
import os
import sys
from dataclasses import replace

import pytest

from repro.fleet.config import FleetConfig
from repro.fleet.coordinator import run_inline, run_single_process

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
def test_reference_matches_golden(entry):
    expected = load_golden()[entry_key(*entry)]
    result = run_single_process(entry_config(*entry))
    assert {str(v): h for v, h in result.vehicle_hashes.items()} == expected


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: entry_key(*e))
def test_four_partition_run_matches_golden(entry):
    expected = load_golden()[entry_key(*entry)]
    config = replace(entry_config(*entry), partitions=4)
    result = run_inline(config)
    assert {str(v): h for v, h in result.vehicle_hashes.items()} == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: test_golden_hashes.py --regenerate")
    regenerate()
