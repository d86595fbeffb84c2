"""Tests for the DDI: cache, disk store, collectors, service layer."""

import numpy as np
import pytest

from repro.ddi import (
    DDIService,
    DiskDB,
    MemDB,
    OBDCollector,
    Record,
    SocialCollector,
    TrafficCollector,
    WeatherCollector,
)
from repro.topology import SpeedProfile


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- MemDB ---------------------------------------------------------------------


def test_memdb_put_get():
    clock = FakeClock()
    db = MemDB(clock)
    db.put("k", 42)
    assert db.get("k") == 42
    assert db.stats.hits == 1


def test_memdb_ttl_expiry():
    clock = FakeClock()
    db = MemDB(clock, default_ttl_s=10.0)
    db.put("k", "v")
    clock.now = 9.9
    assert db.get("k") == "v"
    clock.now = 10.1
    assert db.get("k") is None
    assert db.stats.misses == 1


def test_memdb_custom_ttl():
    clock = FakeClock()
    db = MemDB(clock, default_ttl_s=100.0)
    db.put("short", 1, ttl_s=1.0)
    clock.now = 2.0
    assert db.get("short") is None


def test_memdb_lru_eviction_at_capacity():
    clock = FakeClock()
    db = MemDB(clock, default_ttl_s=1000.0, max_entries=2)
    db.put("a", 1)
    clock.now = 1.0
    db.put("b", 2)
    clock.now = 2.0
    assert db.get("a") == 1  # refresh a's recency
    clock.now = 3.0
    db.put("c", 3)  # evicts b (least recently used)
    assert db.get("b") is None
    assert db.get("a") == 1 and db.get("c") == 3


def test_memdb_len_sweeps_expired():
    clock = FakeClock()
    db = MemDB(clock, default_ttl_s=5.0)
    db.put("a", 1)
    db.put("b", 2)
    assert len(db) == 2
    clock.now = 6.0
    assert len(db) == 0


def test_memdb_contains_does_not_count_stats():
    clock = FakeClock()
    db = MemDB(clock)
    db.put("k", 1)
    assert db.contains("k")
    assert not db.contains("missing")
    assert db.stats.hits == 0 and db.stats.misses == 0


def test_memdb_validation():
    with pytest.raises(ValueError):
        MemDB(FakeClock(), default_ttl_s=0.0)
    with pytest.raises(ValueError):
        MemDB(FakeClock(), max_entries=0)
    db = MemDB(FakeClock())
    with pytest.raises(ValueError):
        db.put("k", 1, ttl_s=-1.0)


# -- DiskDB --------------------------------------------------------------------


def rec(stream, t, x=0.0, y=0.0, **payload):
    return Record(stream=stream, timestamp=t, x_m=x, y_m=y, payload=payload)


def test_diskdb_put_query(tmp_path):
    db = DiskDB(str(tmp_path))
    db.put(rec("obd", 1.0, speed=10))
    db.put(rec("obd", 2.0, speed=11))
    db.put(rec("obd", 3.0, speed=12))
    records = db.query("obd", 1.5, 3.0)
    assert [r.timestamp for r in records] == [2.0]


def test_diskdb_time_range_is_half_open(tmp_path):
    db = DiskDB(str(tmp_path))
    for t in (1.0, 2.0, 3.0):
        db.put(rec("s", t))
    assert [r.timestamp for r in db.query("s", 1.0, 3.0)] == [1.0, 2.0]


def test_diskdb_bbox_filter(tmp_path):
    db = DiskDB(str(tmp_path))
    db.put(rec("s", 1.0, x=100.0, y=0.0, tag="near"))
    db.put(rec("s", 2.0, x=9000.0, y=0.0, tag="far"))
    records = db.query("s", 0.0, 10.0, bbox=(0.0, -10.0, 1000.0, 10.0))
    assert [r.payload["tag"] for r in records] == ["near"]


def test_diskdb_durability_across_reopen(tmp_path):
    db = DiskDB(str(tmp_path))
    db.put(rec("obd", 1.0, speed=10))
    db.put(rec("obd", 2.0, speed=20))
    db.close()
    reopened = DiskDB(str(tmp_path))
    records = reopened.query("obd", 0.0, 10.0)
    assert [r.payload["speed"] for r in records] == [10, 20]
    assert reopened.count("obd") == 2


def test_diskdb_out_of_order_writes_query_sorted(tmp_path):
    db = DiskDB(str(tmp_path))
    for t in (3.0, 1.0, 2.0):
        db.put(rec("s", t))
    assert [r.timestamp for r in db.query("s", 0.0, 10.0)] == [1.0, 2.0, 3.0]


def test_diskdb_multiple_streams(tmp_path):
    db = DiskDB(str(tmp_path))
    db.put(rec("obd", 1.0))
    db.put(rec("weather", 1.0))
    assert db.streams == ["obd", "weather"]
    assert db.count("obd") == 1


def test_diskdb_invalid_range(tmp_path):
    db = DiskDB(str(tmp_path))
    with pytest.raises(ValueError):
        db.query("s", 5.0, 1.0)


# -- collectors ------------------------------------------------------------------


def test_obd_collector_tracks_profile():
    profile = SpeedProfile([(0.0, 10.0)])
    collector = OBDCollector(profile=profile, rng=np.random.default_rng(0))
    record = collector.sample(5.0)
    assert record.stream == "obd"
    assert record.payload["speed_mps"] == pytest.approx(10.0)
    assert record.x_m == pytest.approx(50.0)
    assert record.payload["rpm"] > 800


def test_weather_collector_condition_is_stable_within_epoch():
    collector = WeatherCollector(rng=np.random.default_rng(0))
    a = collector.sample(10.0).payload["condition"]
    b = collector.sample(100.0).payload["condition"]
    assert a == b


def test_traffic_and_social_payloads():
    rng = np.random.default_rng(0)
    traffic = TrafficCollector(rng=rng).sample(1.0)
    assert 0.0 <= traffic.payload["congestion"] <= 1.0
    social = SocialCollector(rng=rng).sample(1.0)
    assert "kind" in social.payload


# -- service layer ------------------------------------------------------------------


def test_service_upload_then_cached_download(tmp_path):
    clock = FakeClock()
    service = DDIService(clock, DiskDB(str(tmp_path)))
    for t in (1.0, 2.0, 3.0):
        clock.now = t
        service.upload(rec("obd", t, speed=t * 10))
    result = service.download("obd", 0.0, 5.0)
    assert result.from_cache
    assert [r.payload["speed"] for r in result.records] == [10.0, 20.0, 30.0]
    assert result.modelled_latency_s < 0.001


def test_service_download_is_cache_served_only_when_every_10s_bucket_is_hot(
    tmp_path,
):
    clock = FakeClock()
    service = DDIService(clock, DiskDB(str(tmp_path)))
    for t in (5.0, 15.0, 25.0):
        service.upload(rec("obd", t, speed=t))
    spanning = service.download("obd", 0.0, 30.0)
    assert spanning.from_cache
    assert [r.payload["speed"] for r in spanning.records] == [5.0, 15.0, 25.0]
    middle = service.download("obd", 10.0, 20.0)
    assert middle.from_cache
    assert [r.payload["speed"] for r in middle.records] == [15.0]
    # Bucket [30, 40) never saw an upload, so the range goes to disk.
    service.upload(rec("obd", 45.0, speed=45.0))
    gapped = service.download("obd", 20.0, 50.0)
    assert not gapped.from_cache
    assert [r.payload["speed"] for r in gapped.records] == [25.0, 45.0]


def test_service_download_falls_back_to_disk_after_ttl(tmp_path):
    clock = FakeClock()
    service = DDIService(clock, DiskDB(str(tmp_path)), cache_ttl_s=30.0)
    service.upload(rec("obd", 1.0, speed=10))
    clock.now = 100.0  # cache expired
    result = service.download("obd", 0.0, 5.0)
    assert not result.from_cache
    assert [r.payload["speed"] for r in result.records] == [10]
    assert result.modelled_latency_s > 0.001


def test_service_bbox_download_from_cache(tmp_path):
    clock = FakeClock()
    service = DDIService(clock, DiskDB(str(tmp_path)))
    service.upload(rec("s", 1.0, x=10.0))
    service.upload(rec("s", 2.0, x=9000.0))
    result = service.download("s", 0.0, 5.0, bbox=(0.0, -1.0, 100.0, 1.0))
    assert len(result.records) == 1 and result.records[0].x_m == 10.0


def test_service_collectors_roundtrip(tmp_path):
    clock = FakeClock()
    service = DDIService(clock, DiskDB(str(tmp_path)))
    profile = SpeedProfile([(0.0, 15.0)])
    rng = np.random.default_rng(0)
    service.attach_collector(OBDCollector(profile=profile, rng=rng))
    service.attach_collector(WeatherCollector(rng=rng))
    for t in range(5):
        clock.now = float(t)
        service.collect_all(float(t))
    assert service.uploads == 10
    obd = service.download("obd", 0.0, 5.0)
    assert len(obd.records) == 5
