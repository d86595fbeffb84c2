"""Tests for DDI -> cloud migration and the open data server."""

import pytest

from repro.ddi import CloudDataServer, DiskDB, Record, UplinkMigrator
from repro.edgeos import LocationFuzzer
from repro.net import LinkModel


def rec(t, x=0.0, **payload):
    return Record("obd", t, x, 0.0, payload or {"v": t})


def loaded_disk(tmp_path, count=25):
    disk = DiskDB(str(tmp_path / "ddi"))
    for i in range(count):
        disk.put(rec(float(i), x=float(i * 10)))
    return disk


def lte(mbps=10.0):
    return LinkModel(name="lte", bandwidth_mbps=mbps, rtt_s=0.07)


def test_server_ingest_dedup_and_query():
    server = CloudDataServer()
    batch = [rec(1.0), rec(2.0)]
    assert server.ingest(batch) == 2
    assert server.ingest(batch) == 0  # replays deduplicate
    assert server.count("obd") == 2
    assert [r.timestamp for r in server.open_query("obd", 0.0, 1.5)] == [1.0]
    with pytest.raises(ValueError):
        server.open_query("obd", 5.0, 1.0)


def test_server_keeps_distinct_records_that_share_time_and_place():
    server = CloudDataServer()
    raw, corrected = rec(5.0, v=1), rec(5.0, v=2)
    assert server.ingest([raw, corrected]) == 2
    assert server.ingest([corrected, raw]) == 0  # replays still drop
    assert server.count("obd") == 2


def test_records_sharing_the_last_shipped_time_all_migrate(tmp_path):
    disk = DiskDB(str(tmp_path / "ddi"))
    for v in range(3):
        disk.put(rec(5.0, v=v))
    server = CloudDataServer()
    migrator = UplinkMigrator(disk, server, ["obd"], batch_size=2)
    assert migrator.run_round(10.0, lte()) == 3  # one time is never split
    assert server.count("obd") == 3
    assert migrator.fully_migrated(10.0)


def test_a_batch_finishes_the_last_time_it_reaches(tmp_path):
    disk = DiskDB(str(tmp_path / "ddi"))
    for t, v in ((1.0, 0), (5.0, 1), (5.0, 2), (6.0, 3)):
        disk.put(rec(t, v=v))
    server = CloudDataServer()
    migrator = UplinkMigrator(disk, server, ["obd"], batch_size=2)
    shipped = [migrator.run_round(10.0, lte()) for _ in range(3)]
    assert shipped == [3, 1, 0]
    assert sorted(r.payload["v"] for r in server.open_query("obd", 0.0, 10.0)) == [0, 1, 2, 3]
    assert migrator.fully_migrated(10.0)


def test_migrator_validation(tmp_path):
    with pytest.raises(ValueError):
        UplinkMigrator(loaded_disk(tmp_path), CloudDataServer(), ["obd"],
                       batch_size=0)


def test_migration_in_batches_until_drained(tmp_path):
    disk = loaded_disk(tmp_path, count=25)
    server = CloudDataServer()
    migrator = UplinkMigrator(disk, server, ["obd"], batch_size=10)
    assert migrator.run_round(100.0, lte()) == 10
    assert migrator.run_round(100.0, lte()) == 10
    assert migrator.run_round(100.0, lte()) == 5
    assert migrator.run_round(100.0, lte()) == 0
    assert migrator.fully_migrated(100.0)
    assert server.count("obd") == 25
    assert migrator.stats.records_migrated == 25
    assert migrator.stats.bytes_shipped > 0
    assert migrator.stats.transfer_seconds > 0


def test_migration_defers_on_poor_uplink(tmp_path):
    disk = loaded_disk(tmp_path)
    migrator = UplinkMigrator(disk, CloudDataServer(), ["obd"],
                              min_bandwidth_mbps=2.0)
    assert migrator.run_round(100.0, lte(mbps=0.5)) == 0
    assert migrator.stats.deferred_rounds == 1
    assert migrator.run_round(100.0, lte(mbps=10.0)) > 0


def test_watermark_makes_migration_resumable(tmp_path):
    disk = loaded_disk(tmp_path, count=20)
    server = CloudDataServer()
    migrator = UplinkMigrator(disk, server, ["obd"], batch_size=10)
    migrator.run_round(100.0, lte())
    watermark = migrator.watermark("obd")
    assert watermark > 9.0
    # A "restarted" migrator at the same watermark ships only the rest.
    resumed = UplinkMigrator(disk, server, ["obd"], batch_size=100)
    resumed._watermark["obd"] = watermark
    assert resumed.run_round(100.0, lte()) == 10
    assert server.count("obd") == 20


def test_new_records_after_migration_are_picked_up(tmp_path):
    disk = loaded_disk(tmp_path, count=5)
    server = CloudDataServer()
    migrator = UplinkMigrator(disk, server, ["obd"], batch_size=100)
    migrator.run_round(10.0, lte())
    assert migrator.fully_migrated(10.0)
    disk.put(rec(50.0))
    assert not migrator.fully_migrated(100.0)
    assert migrator.run_round(100.0, lte()) == 1


def test_location_generalized_before_leaving_vehicle(tmp_path):
    """The privacy module's fuzzing applies vehicle-side: the cloud only
    ever sees cell centres."""
    disk = loaded_disk(tmp_path, count=5)
    server = CloudDataServer()
    migrator = UplinkMigrator(
        disk, server, ["obd"], fuzzer=LocationFuzzer(grid_m=500.0)
    )
    migrator.run_round(10.0, lte())
    cloud_positions = {r.x_m for r in server.open_query("obd", 0.0, 10.0)}
    assert cloud_positions == {250.0}  # raw 0..40 m all snap to one cell
    # The on-vehicle copy keeps full precision.
    local = disk.query("obd", 0.0, 10.0)
    assert {r.x_m for r in local} == {0.0, 10.0, 20.0, 30.0, 40.0}
