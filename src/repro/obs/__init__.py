"""repro.obs: the platform's deterministic observability layer.

Three pieces, all on the sim clock (vdaplint-clean: no wall clock, no
global RNG, byte-stable exports):

* **Metrics** (:mod:`repro.obs.metrics`) -- a label-aware registry of
  :class:`Counter` / :class:`Gauge` / :class:`Histogram` series with
  snapshot/merge and stable JSON export.  Histograms keep fixed
  buckets per sample; their P-squared p50/p95/p99 estimates are replayed
  from a log of unread samples (8 B each) when read, so fleet
  partitions, which ship only mergeable state, never compute them.
  :class:`Summary` and :class:`Timeline` live here.
* **Tracing** (:mod:`repro.obs.trace`) -- a span tracer stamping sim-time
  async spans (one per process lifetime) and instants, and exporting
  Chrome ``trace_event`` JSON viewable in Perfetto.
* **Recorder** (:mod:`repro.obs.recorder`) -- the facade the hot layers
  call.  The default :data:`NULL_RECORDER` is a near-zero-cost no-op;
  installing a :class:`Collector` (``Simulator(obs=...)`` or
  ``DriveScenario(observe=...)``) lights up every hook at once.

:class:`Report` (:mod:`repro.obs.report`) is the unified benchmark output
path: declared columns, ``to_text()`` for the committed tables,
``to_json()`` for machine-readable artifacts.
"""

from typing import TYPE_CHECKING

from .. import _lazy_exports

if TYPE_CHECKING:
    from .metrics import (
        DEFAULT_BUCKETS,
        Counter,
        Gauge,
        Histogram,
        MetricRegistry,
        P2Quantile,
        Summary,
        Timeline,
        merge_many,
        merge_snapshots,
        mergeable_view,
    )
    from .recorder import NULL_RECORDER, Collector, Recorder
    from .report import Column, Report
    from .trace import SpanTracer

__all__ = [
    "Collector",
    "Column",
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "NULL_RECORDER",
    "P2Quantile",
    "Recorder",
    "Report",
    "SpanTracer",
    "Summary",
    "Timeline",
    "merge_many",
    "merge_snapshots",
    "mergeable_view",
]

__getattr__, __dir__ = _lazy_exports(__name__)
