"""Batched per-device task accounting.

The scheduler hot path (``repro.vcu.dsf``) used to make five recorder
calls per completed task; at fleet scale that is five calls per event for
the busiest event class in the simulation.  :class:`TaskAccounting`
accumulates the per-task samples -- execution seconds, queue-wait
seconds, dispatched giga-ops, completion counts -- in plain per-device
lists and folds them into the recorder once per sim step via
:meth:`flush` (wired through :meth:`repro.sim.core.Simulator.
add_flush_hook`).  Counter sums and histogram states are exactly what
per-task recording would have produced; only the call count changes.

A flush carries a handful of samples per device, too few to pay for a
numpy batch, so each device's four series are resolved once per
recorder and the samples are fed to the histograms one by one.
"""

from __future__ import annotations

from ..obs.recorder import Recorder

__all__ = ["TaskAccounting"]


class TaskAccounting:
    """Accumulates per-device task samples between recorder flushes.

    ``prefix`` namespaces the emitted series (the DSF uses ``"vcu"``):

    * ``<prefix>.tasks_completed`` -- counter, per device;
    * ``<prefix>.task_exec_s`` -- histogram of execution times, per device;
    * ``<prefix>.queue_wait_s`` -- histogram of dispatch-queue waits;
    * ``<prefix>.task_gops`` -- counter of dispatched giga-ops (the FLOP
      ledger tying scheduled work back to the ``repro.nn`` cost models).
    """

    __slots__ = ("_exec", "_wait", "_gops", "_metric_names", "_obs", "_series")

    def __init__(self, prefix: str = "vcu"):
        # device -> list of per-task samples (exec and wait stay sample
        # lists for histogram batching; gops collapses to a running sum).
        self._exec: dict[str, list[float]] = {}
        self._wait: dict[str, list[float]] = {}
        self._gops: dict[str, float] = {}
        self._metric_names = (
            f"{prefix}.tasks_completed",
            f"{prefix}.task_exec_s",
            f"{prefix}.queue_wait_s",
            f"{prefix}.task_gops",
        )
        # device -> its four series in ``_metric_names`` order, resolved
        # from ``_obs``; a flush into another recorder resolves afresh.
        self._obs: Recorder | None = None
        self._series: dict[str, tuple] = {}

    def record(
        self, device: str, exec_s: float, wait_s: float, work_gop: float
    ) -> None:
        """Account one completed task on ``device``."""
        exec_samples = self._exec.get(device)
        if exec_samples is None:
            self._exec[device] = [exec_s]
            self._wait[device] = [wait_s]
            self._gops[device] = work_gop
        else:
            exec_samples.append(exec_s)
            self._wait[device].append(wait_s)
            self._gops[device] += work_gop

    @property
    def pending(self) -> bool:
        """True when samples are waiting to be flushed."""
        return bool(self._exec)

    def flush(self, obs: Recorder) -> None:
        """Fold everything accumulated since the last flush into ``obs``.

        Devices flush in sorted-name order so the flush itself is
        deterministic regardless of completion interleaving.
        """
        if not self._exec:
            return
        if obs is not self._obs:
            self._obs = obs
            self._series = {}
        for device in sorted(self._exec):
            series = self._series.get(device)
            if series is None:
                series = self._series[device] = self._resolve(obs, device)
            completed, exec_hist, wait_hist, gops = series
            exec_samples = self._exec[device]
            completed.inc(len(exec_samples))
            observe = exec_hist.observe
            for value in exec_samples:
                observe(value)
            observe = wait_hist.observe
            for value in self._wait[device]:
                observe(value)
            gops.inc(self._gops[device])
        self._exec.clear()
        self._wait.clear()
        self._gops.clear()

    def _resolve(self, obs: Recorder, device: str) -> tuple:
        completed, exec_name, wait_name, gops_name = self._metric_names
        return (
            obs.counter(completed, device=device),
            obs.histogram(exec_name, device=device),
            obs.histogram(wait_name, device=device),
            obs.counter(gops_name, device=device),
        )
