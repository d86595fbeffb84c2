"""DDI service layer: upload/download over the two-tier store.

Paper SIV-D: "The service layer takes charge of requests from the upper
layer like libvdap via a set of APIs.  The requests include two types:
download requests and upload requests. ... all the requests for the data
would search the in-memory database first; when it can't be found in
in-memory database, it would go to the disk database.  For an upload
request, firstly the data would be stored in in-memory database ... the
data in in-memory database would be written to disk database for data
persistence."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .collectors import Collector
from .diskdb import DiskDB, Record
from .memdb import MemDB

__all__ = ["DownloadResult", "DDIService"]

#: Modelled service latencies of the two tiers (calibration constants:
#: in-memory lookups are ~100x faster than a disk-backed range scan).
MEMDB_LATENCY_S = 0.0002
DISKDB_LATENCY_S = 0.020


@dataclass
class DownloadResult:
    """Records plus where they were served from."""

    records: list[Record]
    from_cache: bool
    modelled_latency_s: float


class DDIService:
    """The upload/download facade over (MemDB, DiskDB)."""

    def __init__(
        self,
        clock: Callable[[], float],
        diskdb: DiskDB,
        cache_ttl_s: float = 60.0,
        cache_entries: int = 4096,
    ):
        self._clock = clock
        self.disk = diskdb
        self.cache = MemDB(clock, default_ttl_s=cache_ttl_s, max_entries=cache_entries)
        self._collectors: list[Collector] = []
        self.uploads = 0
        self.downloads = 0
        self.dropped_samples = 0

    # -- collector integration --------------------------------------------------

    def attach_collector(self, collector: Collector) -> None:
        self._collectors.append(collector)

    def collect_all(self, time_s: float, faults=None) -> list[Record]:
        """Poll every attached collector once and upload the records.

        ``faults`` (a :class:`~repro.faults.injector.FaultInjector`) makes
        dropouts observable: collectors inside a COLLECTOR_DROPOUT window
        are skipped and counted in :attr:`dropped_samples` -- the stream
        simply has a gap, exactly like a wedged sensor daemon.
        """
        records = []
        for collector in self._collectors:
            if faults is not None and faults.collector_down(collector.stream):
                self.dropped_samples += 1
                continue
            records.append(collector.sample(time_s))
        for record in records:
            self.upload(record)
        return records

    # -- the two request types ---------------------------------------------------

    @staticmethod
    def _bucket_key(stream: str, timestamp: float, bucket_s: float = 10.0) -> str:
        return f"{stream}:{int(timestamp // bucket_s)}"

    def upload(self, record: Record) -> None:
        """Cache first, then persist (write-through for durability)."""
        key = self._bucket_key(record.stream, record.timestamp)
        bucket = self.cache.get(key) or []
        bucket.append(record)
        self.cache.put(key, bucket)
        self.disk.put(record)
        self.uploads += 1

    def download(
        self,
        stream: str,
        t0: float,
        t1: float,
        bbox: tuple[float, float, float, float] | None = None,
    ) -> DownloadResult:
        """Keyword (time/location) query: cache first, disk on miss."""
        self.downloads += 1
        # A request is cache-servable when every 10 s bucket in range is hot.
        bucket_s = 10.0
        first = int(t0 // bucket_s)
        last = int((t1 - 1e-9) // bucket_s)
        buckets = [f"{stream}:{b}" for b in range(first, last + 1)]
        if buckets and all(self.cache.contains(k) for k in buckets):
            records: list[Record] = []
            for key in buckets:
                records.extend(self.cache.get(key) or [])
            records = [r for r in records if t0 <= r.timestamp < t1]
            if bbox is not None:
                x0, y0, x1, y1 = bbox
                records = [
                    r for r in records if x0 <= r.x_m <= x1 and y0 <= r.y_m <= y1
                ]
            records.sort(key=lambda r: r.timestamp)
            return DownloadResult(
                records=records, from_cache=True, modelled_latency_s=MEMDB_LATENCY_S
            )
        records = self.disk.query(stream, t0, t1, bbox=bbox)
        return DownloadResult(
            records=records, from_cache=False, modelled_latency_s=DISKDB_LATENCY_S
        )
