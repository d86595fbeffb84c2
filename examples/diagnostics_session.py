#!/usr/bin/env python3
"""Real-time diagnostics over the DDI: rules now, predictions ahead.

A one-hour urban drive streams OBD data (with a slow tire leak injected)
into the DDI's two-tier store.  The diagnostics service evaluates the
instantaneous trouble-code rules on each record and, from the historical
window, predicts when the leak will cross the fault threshold -- the
"quietly analyzes it to predict faults" behaviour of paper SII-A.

Run:  python examples/diagnostics_session.py
"""

import tempfile

import numpy as np

from repro.apps import DiagnosticsService
from repro.ddi import DDIService, DiskDB, OBDCollector, Record, WeatherCollector
from repro.topology import urban_profile


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def main() -> None:
    # A fresh store per run, so a rerun prints the same record counts.
    with tempfile.TemporaryDirectory(prefix="openvdap-diagnostics-") as root:
        session(root)


def session(ddi_root: str) -> None:
    rng = np.random.default_rng(4)
    clock = Clock()
    ddi = DDIService(clock, DiskDB(ddi_root), cache_ttl_s=120.0)
    profile = urban_profile(3600.0, rng)
    ddi.attach_collector(OBDCollector(profile=profile, rng=rng))
    ddi.attach_collector(WeatherCollector(rng=rng))

    diagnostics = DiagnosticsService()
    leak_rate_kpa_per_s = 0.004  # slow puncture

    # Drive for an hour, sampling every 10 s.
    for t in range(0, 3600, 10):
        clock.now = float(t)
        records = ddi.collect_all(float(t))
        for record in records:
            if record.stream == "obd":
                # Inject the leak into the collected record before analysis.
                leaked = dict(record.payload)
                leaked["tire_pressure_kpa"] -= leak_rate_kpa_per_s * t
                record = Record(record.stream, record.timestamp,
                                record.x_m, record.y_m, leaked)
                ddi.upload(record)
                diagnostics.check(record)

    print(f"drive complete: {ddi.uploads} records uploaded "
          f"(cache hit rate so far: {ddi.cache.stats.hit_rate:.0%})")
    print(f"instantaneous trouble codes raised: "
          f"{sorted({f.code for f in diagnostics.faults}) or 'none'}")

    # Predictive pass over the last 30 minutes of history from the DDI.
    history = ddi.download("obd", 1800.0, 3600.0)
    tire_records = [r for r in history.records if "tire_pressure_kpa" in r.payload]
    # Keep only the leak-injected copies (the lower pressure ones per bucket).
    predictions = diagnostics.predict(tire_records, horizon_s=8 * 3600)
    print(f"\npredictive analysis over {len(tire_records)} records "
          f"(served from {'cache' if history.from_cache else 'disk'}, "
          f"{history.modelled_latency_s * 1e3:.1f} ms):")
    if not predictions:
        print("  no drifting channels")
    for prediction in predictions:
        print(f"  {prediction.channel}: crossing {prediction.threshold} in "
              f"~{prediction.eta_s / 60:.0f} minutes "
              f"(slope {prediction.slope_per_s * 3600:+.1f}/hour) "
              f"-> schedule service")


if __name__ == "__main__":
    main()
