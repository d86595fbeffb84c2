"""A5 -- V2V collaboration: compute saved vs platoon size and overlap.

Paper SIII-C: collaboration "can save computing power by avoiding
executing unnecessary repeating operations".  This ablation sweeps the
platoon size and the sighting-overlap fraction and reports the fraction
of recognition compute saved against non-collaborating vehicles.
"""

import numpy as np
import pytest

from conftest import persist_report
from repro.apps import Platoon, PlateSighting, generate_sightings
from repro.obs import Report

SIZES = (2, 3, 5)
OVERLAPS = (0.3, 0.6, 0.9)


def shared_streams(vehicles: int, overlap: float, seed: int = 0):
    rng = np.random.default_rng(seed)
    base = generate_sightings(80, "TARGET-1", rng)
    lists = []
    for v in range(vehicles):
        mine = []
        for s in base:
            if rng.random() < overlap:
                mine.append(PlateSighting(s.time_s + 0.1 * v, s.position_m,
                                          s.plate, s.quality))
            else:
                mine.append(PlateSighting(s.time_s + 0.1 * v,
                                          float(rng.uniform(0, 10_000)),
                                          f"UNIQ-{v}-{len(mine)}", s.quality))
        lists.append(mine)
    return lists


def sweep():
    rows = []
    for size in SIZES:
        for overlap in OVERLAPS:
            streams = shared_streams(size, overlap)
            solo = Platoon(size, collaborate=False).run(
                [list(s) for s in streams]
            )
            collab = Platoon(size, collaborate=True).run(streams)
            saved = 1.0 - collab.gops_spent / solo.gops_spent
            rows.append((size, overlap, collab.reuse_rate, saved))
    return rows


def test_collaboration_sweep(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    report = Report("ablate_collab", "A5 -- V2V collaboration: recognition compute saved")
    report.add_column("platoon", 8, "d")
    report.add_column("overlap", 9, ".1f")
    report.add_column("reuse_rate", 12, ".2f", header="reuse rate")
    report.add_column("saved", 15, ".1%", header="compute saved")
    for size, overlap, reuse, saved in rows:
        report.add_row(platoon=size, overlap=overlap, reuse_rate=reuse, saved=saved)
    persist_report(report)

    # Savings grow with overlap at fixed size...
    for size in SIZES:
        saved_by_overlap = [s for sz, _o, _r, s in rows if sz == size]
        assert saved_by_overlap == sorted(saved_by_overlap)
    # ...and with platoon size at high overlap.
    high = [s for _sz, o, _r, s in rows if o == 0.9]
    assert high == sorted(high)
    assert max(s for *_x, s in rows) >= 0.69, "up to 70 % saved (5 vehicles, 90 % overlap)"
