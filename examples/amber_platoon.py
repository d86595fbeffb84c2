#!/usr/bin/env python3
"""AMBER-alert search with V2V collaboration.

Three CAVs hunt for a target plate.  With collaboration on, recognized
candidates are published (under rotating pseudonyms) to one shared
data-sharing topic, and peers skip recognition of candidates someone
already identified -- the compute-saving mechanism of paper SIII-C.
The topic has no radio range: every member hears every result.

Run:  python examples/amber_platoon.py
"""

import numpy as np

from repro.apps import AmberSearchService, Platoon, PlateSighting, generate_sightings

TARGET = "AMBER-911"


def platoon_sightings(vehicles: int, rng: np.random.Generator):
    """Overlapping sighting streams: platoon members see the same traffic."""
    base = generate_sightings(120, TARGET, rng, target_frequency=0.03)
    lists = []
    for v in range(vehicles):
        mine = []
        for s in base:
            if rng.random() < 0.75:  # most candidates are seen by everyone
                mine.append(PlateSighting(s.time_s + 0.1 * v, s.position_m,
                                          s.plate, s.quality))
        lists.append(mine)
    return lists


def main() -> None:
    rng = np.random.default_rng(11)
    sightings = platoon_sightings(3, rng)
    total = sum(len(s) for s in sightings)

    solo = Platoon(3, collaborate=False).run(
        [list(streams) for streams in sightings]
    )
    collab = Platoon(3, collaborate=True).run(sightings)

    print(f"{total} sightings across 3 vehicles hunting for {TARGET}\n")
    print(f"{'':24s}{'solo':>12s}{'collaborative':>16s}")
    print(f"{'recognitions executed':24s}{solo.recognitions_executed:>12d}"
          f"{collab.recognitions_executed:>16d}")
    print(f"{'results reused':24s}{solo.recognitions_reused:>12d}"
          f"{collab.recognitions_reused:>16d}")
    print(f"{'compute spent (Gops)':24s}{solo.gops_spent:>12.1f}"
          f"{collab.gops_spent:>16.1f}")
    saved = 100.0 * (1.0 - collab.gops_spent / solo.gops_spent)
    print(f"\ncollaboration saved {saved:.0f}% of platoon compute "
          f"(reuse rate {collab.reuse_rate:.0%})")

    # A single vehicle confirms the find with the full pipeline.
    service = AmberSearchService(target_plate=TARGET)
    for sighting in sightings[0]:
        hit = service.process(sighting)
        if hit:
            print(f"\ntarget found at t={hit.time_s:.0f}s, "
                  f"x={hit.position_m:.0f} m -- alerting law enforcement")
            break


if __name__ == "__main__":
    main()
