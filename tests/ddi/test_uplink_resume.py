"""Crash-resumability of the uplink migrator.

The scenario: the cellular uplink (or the migrator process itself) dies
mid-batch -- the cloud may have absorbed part of the batch, the vehicle
never saw the ack.  A restarted migrator must pick up from the durable
watermark and re-ship the interrupted batch; server-side dedup makes the
replay idempotent, so across any number of crashes every record lands on
the cloud exactly once.
"""

import json
import os

import pytest

from repro.ddi import CloudDataServer, DiskDB, Record, UplinkMigrator
from repro.ddi.uplink import WATERMARK_FILE
from repro.net import LinkModel


def rec(t, x=0.0):
    return Record("obd", t, x, 0.0, {"v": t})


def loaded_disk(tmp_path, count=30):
    disk = DiskDB(str(tmp_path / "ddi"))
    for i in range(count):
        disk.put(rec(float(i), x=float(i * 10)))
    return disk


def lte(mbps=10.0):
    return LinkModel(name="lte", bandwidth_mbps=mbps, rtt_s=0.07)


class CrashingServer(CloudDataServer):
    """Absorbs part of a batch, then dies before acknowledging it."""

    def __init__(self, crash_after_batches, partial=4):
        super().__init__()
        self.crash_after_batches = crash_after_batches
        self.partial = partial

    def ingest(self, records):
        if self.batches_ingested == self.crash_after_batches:
            # The uplink drops mid-transfer: some records made it.
            super().ingest(records[: self.partial])
            raise ConnectionError("uplink dropped mid-batch")
        return super().ingest(records)


def test_watermark_file_survives_restart(tmp_path):
    disk = loaded_disk(tmp_path, count=20)
    server = CloudDataServer()
    migrator = UplinkMigrator(disk, server, ["obd"], batch_size=10)
    migrator.run_round(100.0, lte())
    path = os.path.join(disk.root, WATERMARK_FILE)
    assert os.path.exists(path)
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh)["obd"] == pytest.approx(9.0, abs=1e-6)

    # A brand-new migrator on the same disk resumes automatically.
    reborn = UplinkMigrator(disk, server, ["obd"], batch_size=100)
    assert reborn.watermark("obd") == migrator.watermark("obd")
    assert reborn.run_round(100.0, lte()) == 10
    assert server.count("obd") == 20


def test_crash_mid_batch_never_drops_or_double_ships(tmp_path):
    disk = loaded_disk(tmp_path, count=30)
    server = CrashingServer(crash_after_batches=1, partial=4)
    migrator = UplinkMigrator(disk, server, ["obd"], batch_size=10)

    assert migrator.run_round(100.0, lte()) == 10  # batch 1 lands cleanly
    with pytest.raises(ConnectionError):
        migrator.run_round(101.0, lte())  # batch 2 dies after 4 records
    assert migrator.stats.failed_rounds == 1
    # The watermark never moved past the acknowledged batch...
    assert migrator.watermark("obd") == pytest.approx(9.0, abs=1e-6)
    # ...even though the cloud holds a partial batch.
    assert server.count("obd") == 14

    # Restart from disk: the durable watermark points at the failed batch.
    resumed = UplinkMigrator(disk, server, ["obd"], batch_size=10)
    assert resumed.watermark("obd") == pytest.approx(9.0, abs=1e-6)
    while resumed.run_round(200.0, lte()):
        pass
    assert resumed.fully_migrated(200.0)
    # Every record exactly once: nothing dropped, dedup ate the replay.
    assert server.count("obd") == 30
    timestamps = [r.timestamp for r in server.open_query("obd", 0.0, 1_000.0)]
    assert timestamps == [float(i) for i in range(30)]


def test_repeated_crashes_still_converge(tmp_path):
    disk = loaded_disk(tmp_path, count=30)
    server = CrashingServer(crash_after_batches=0, partial=7)
    crashes = 0
    for restart in range(10):
        migrator = UplinkMigrator(disk, server, ["obd"], batch_size=10)
        try:
            while not migrator.fully_migrated(500.0):
                migrator.run_round(500.0, lte())
            break
        except ConnectionError:
            crashes += 1
            # Every restart the uplink survives one more batch.
            server.crash_after_batches = server.batches_ingested + 1
    assert crashes >= 1
    final = UplinkMigrator(disk, server, ["obd"], batch_size=10)
    assert final.fully_migrated(500.0)
    assert server.count("obd") == 30
