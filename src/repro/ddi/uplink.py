"""DDI -> cloud data migration and the open community dataset.

Paper SIV-A: "All data collected by the DDI will be cached on the vehicle
and eventually migrated to a cloud based data server.  Note that these
data will be open to the community."

Two pieces:

* :class:`CloudDataServer` -- the community-facing store: ingests record
  batches, drops replayed records, and serves open queries (with the Privacy
  module's location generalization already applied on the vehicle side).
* :class:`UplinkMigrator` -- the vehicle-side background job: drains
  not-yet-migrated DDI records in batches whenever uplink bandwidth is
  good enough, tracks a durable watermark so migration is resumable, and
  accounts the bytes it ships.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

from ..edgeos.privacy import LocationFuzzer
from ..net.channel import LinkModel
from ..obs.recorder import NULL_RECORDER, Recorder
from .diskdb import DiskDB, Record

__all__ = ["CloudDataServer", "UplinkMigrator", "MigrationStats"]

#: File (inside the DiskDB root) holding the durable per-stream watermark.
WATERMARK_FILE = "_uplink_watermark.json"


class CloudDataServer:
    """The open vehicle-data server the community queries."""

    def __init__(self):
        self._records: dict[str, list[Record]] = {}
        self._seen: set[tuple[str, str]] = set()
        self.batches_ingested = 0

    def ingest(self, records: list[Record]) -> int:
        """Store a batch; returns how many were new.

        A record is a replay only if stream, time, location and payload
        all match one already stored; records that merely share a time and
        place (a raw sample and its corrected copy) are both kept.
        """
        new = 0
        for record in records:
            key = (record.stream, record.to_json())
            if key in self._seen:
                continue
            self._seen.add(key)
            self._records.setdefault(record.stream, []).append(record)
            new += 1
        self.batches_ingested += 1
        return new

    def open_query(self, stream: str, t0: float, t1: float) -> list[Record]:
        """The free community API: time-range query over a stream."""
        if t1 < t0:
            raise ValueError("query range end before start")
        return sorted(
            (r for r in self._records.get(stream, []) if t0 <= r.timestamp < t1),
            key=lambda r: r.timestamp,
        )

    def count(self, stream: str) -> int:
        return len(self._records.get(stream, []))


@dataclass
class MigrationStats:
    """Accounting of one migrator's lifetime."""

    records_migrated: int = 0
    bytes_shipped: float = 0.0
    transfer_seconds: float = 0.0
    batches: int = 0
    deferred_rounds: int = 0
    failed_rounds: int = 0
    #: ``"ExcType: message"`` of the most recent mid-batch failure, if any.
    last_error: str | None = None


class UplinkMigrator:
    """Vehicle-side background migration with a resumable watermark.

    Resilience: the per-stream watermark is *durable* (persisted inside the
    DiskDB directory after every successful batch, reloaded on restart),
    and a batch's watermark only advances after the server acknowledged
    it.  Because the cloud server drops replayed records, a batch replayed
    after a mid-batch crash never double-counts.

    A batch never splits a timestamp: it takes every record at the last
    time it reaches, even past ``batch_size``, so the watermark
    "everything before this time has migrated" skips nothing.
    """

    def __init__(
        self,
        diskdb: DiskDB,
        server: CloudDataServer,
        streams: list[str],
        min_bandwidth_mbps: float = 2.0,
        batch_size: int = 100,
        fuzzer: LocationFuzzer | None = None,
        obs: Recorder | None = None,
    ):
        if batch_size < 1:
            raise ValueError("batch size must be positive")
        self.obs = obs if obs is not None else NULL_RECORDER
        self.disk = diskdb
        self.server = server
        self.streams = list(streams)
        self.min_bandwidth_mbps = min_bandwidth_mbps
        self.batch_size = batch_size
        self.fuzzer = fuzzer
        # Watermark per stream: everything strictly before it has migrated.
        self._watermark: dict[str, float] = {stream: 0.0 for stream in streams}
        for stream, mark in self._load_watermarks().items():
            if stream in self._watermark:
                self._watermark[stream] = mark
        self.stats = MigrationStats()

    # -- durable watermark -------------------------------------------------

    @property
    def _watermark_path(self) -> str:
        return os.path.join(self.disk.root, WATERMARK_FILE)

    def _load_watermarks(self) -> dict[str, float]:
        try:
            with open(self._watermark_path, "r", encoding="utf-8") as fh:
                return {str(k): float(v) for k, v in json.load(fh).items()}
        except (FileNotFoundError, ValueError):
            return {}

    def _persist_watermarks(self) -> None:
        tmp = self._watermark_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self._watermark, fh, separators=(",", ":"))
        os.replace(tmp, self._watermark_path)  # atomic: never a torn file

    def watermark(self, stream: str) -> float:
        return self._watermark[stream]

    def pending(self, stream: str, horizon_s: float) -> list[Record]:
        return self.disk.query(stream, self._watermark[stream], horizon_s)

    def _privatize(self, record: Record) -> Record:
        if self.fuzzer is None:
            return record
        gx, gy = self.fuzzer.generalize(record.x_m, record.y_m)
        return Record(record.stream, record.timestamp, gx, gy, record.payload)

    def run_round(
        self, now_s: float, link: LinkModel, cloud_up: bool = True
    ) -> int:
        """One migration opportunity: ship up to one batch per stream.

        Defers entirely when the link is below the bandwidth floor (the
        cellular uplink is shared with latency-sensitive services), or
        when the cloud is unreachable (``cloud_up=False``, e.g. from a
        fault plan's CLOUD_UNREACHABLE window).  Returns the number of
        records migrated this round.

        Crash-consistency: the watermark for a stream advances only after
        the server acknowledged the whole batch, and is persisted before
        the next stream ships -- a crash mid-batch re-ships that batch on
        restart, and the server's dedup makes the replay idempotent.
        """
        if link.bandwidth_mbps < self.min_bandwidth_mbps:
            self.stats.deferred_rounds += 1
            self.obs.count("ddi.uplink_deferred_rounds")
            return 0
        if not cloud_up:
            self.stats.failed_rounds += 1
            self.obs.count("ddi.uplink_failed_rounds")
            return 0
        migrated = 0
        try:
            for stream in self.streams:
                pending = self.pending(stream, now_s)
                end = min(self.batch_size, len(pending))
                # Finish the last time reached (``pending`` is in time order).
                while (0 < end < len(pending)
                       and pending[end].timestamp <= pending[end - 1].timestamp):
                    end += 1
                batch = pending[:end]
                if not batch:
                    continue
                shipped = [self._privatize(record) for record in batch]
                nbytes = float(sum(len(r.to_json()) for r in shipped))
                self.server.ingest(shipped)
                # Acknowledged: only now account and advance the watermark
                # just past the last shipped time (all of it shipped).
                self.stats.transfer_seconds += link.transfer_time(nbytes)
                self.stats.bytes_shipped += nbytes
                self._watermark[stream] = math.nextafter(batch[-1].timestamp, math.inf)
                self._persist_watermarks()
                migrated += len(batch)
                self.stats.records_migrated += len(batch)
                self.stats.batches += 1
                if self.obs.enabled:
                    self.obs.count(
                        "ddi.uplink_records", n=len(batch), stream=stream
                    )
                    self.obs.count("ddi.uplink_bytes", n=nbytes, stream=stream)
                    self.obs.gauge(
                        "ddi.uplink_watermark_s", self._watermark[stream],
                        stream=stream,
                    )
                    self.obs.gauge(
                        "ddi.uplink_backlog", len(self.pending(stream, now_s)),
                        stream=stream,
                    )
        except (OSError, RuntimeError) as err:
            # The uplink died mid-batch (transport or server failure); the
            # watermark never advanced for the failed batch, so a restart
            # re-ships it (dedup absorbs any records the server did receive
            # before the crash).  Record what happened before propagating --
            # a swallowed cause makes fault storms undebuggable.
            self.stats.failed_rounds += 1
            self.stats.last_error = f"{type(err).__name__}: {err}"
            self.obs.count("ddi.uplink_failed_rounds")
            raise
        return migrated

    def fully_migrated(self, now_s: float) -> bool:
        return all(not self.pending(stream, now_s) for stream in self.streams)
