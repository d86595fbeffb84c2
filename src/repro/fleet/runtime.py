"""Partition runtime: one shard of the fleet on one deterministic kernel.

A :class:`PartitionRuntime` hosts every vehicle assigned to one partition
as a full :class:`~repro.scenario.DriveScenario` (own world, own VCU, own
per-vehicle seed) sharing a single :class:`~repro.sim.core.Simulator`.
It advances in conservative time-sync rounds: deliver the round's inbound
envelope batch, run to the barrier, hand back what the shard sent.  Only
the drive loops are processes: a V2V receive and a beacon tick are each
one :class:`~repro.sim.core.Timeout` with a callback.

Determinism is enforced at two grains:

* **Per-vehicle domain hashes** (:class:`VehicleTraceHash`) fold every
  V2V send, every V2V receive, and a per-barrier state record into a
  rolling BLAKE2 digest.  These depend only on the vehicle's own timeline
  and the canonical envelope order, so they are *partition-invariant*: a
  4-partition fleet must match a single-process run vehicle for vehicle.
* **The kernel trace hash** (the simulator's
  :class:`~repro.sim.core.EventTrace`) covers every event the
  partition's loop fires.  It differs between partitionings
  (different kernels, different event sets) but must be *replay-stable*:
  a respawned worker re-fed the same inbound batches must reproduce it
  barrier for barrier.

The canonical-order rule: **all** V2V traffic -- including messages whose
receiver lives on the same partition -- routes through the barrier
exchange and is sorted by ``(deliver_s, dst, src, seq)`` in
:meth:`V2VBus.deliver`, the single sort point, before delivery
scheduling.  Callers hand over batches in any order; that one sort is
what makes event order independent of how vehicles are sharded.
"""

from __future__ import annotations

import gc
import hashlib
import time  # vdaplint: disable=DET001
from contextlib import contextmanager
from functools import partial
from typing import Any, Callable, Iterator

from ..apps import make_adas_service
from ..obs.metrics import Counter
from ..obs.recorder import Collector
from ..scenario import DriveScenario, ScenarioReport
from ..sim.core import SimulationError, Simulator, Timeout
from ..topology.world import build_default_world
from .config import PartitionSpec
from .transport import Envelope, FinishAck, RoundAck, sort_envelopes

__all__ = [
    "PartitionRuntime",
    "V2VBus",
    "VehicleTraceHash",
    "fmt_float",
    "frozen_heap",
]


def fmt_float(value: float) -> str:
    """Canonical float text for hashing (9 significant digits)."""
    return f"{value:.9g}"


@contextmanager
def frozen_heap() -> Iterator[None]:
    """Keep the cycle collector off everything built so far.

    Wrap a fleet round loop in this once its partitions are built and
    launched: ``gc.freeze()`` moves every live object to the permanent
    generation, so collections triggered by per-tick allocations no
    longer re-walk the vehicles' worlds.  Exit -- normal, raised or
    returned -- unfreezes, so the frozen heap never outlives the run.
    """
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


class VehicleTraceHash:
    """Rolling digest of one vehicle's externally visible behaviour."""

    def __init__(self, vehicle: int):
        self.vehicle = vehicle
        self.records = 0
        self._hash = hashlib.blake2b(digest_size=16)

    def _fold(self, record: str) -> None:
        self.records += 1
        self._hash.update(record.encode())
        self._hash.update(b"\n")

    # The f-strings below *are* the hashed trace lines: the formatted text
    # is the externally visible behaviour being digested, so it cannot be
    # guarded or precomputed away.

    def record_send(self, env: Envelope) -> None:
        self._fold(
            f"send|{fmt_float(env.sent_s)}|{env.dst}|{env.seq}|{env.payload!r}"
        )

    def record_receive(self, env: Envelope) -> None:
        self._fold(
            f"rx|{fmt_float(env.deliver_s)}|{env.src}|{env.seq}|{env.payload!r}"
        )

    def record_state(
        self, barrier_s: float, invocations: int, misses: int, energy_j: float
    ) -> None:
        self._fold(
            f"state|{fmt_float(barrier_s)}|{invocations}|{misses}|"
            f"{fmt_float(energy_j)}"
        )

    @property
    def hexdigest(self) -> str:
        return self._hash.copy().hexdigest()


class V2VBus:
    """Cross-vehicle messaging for one partition, barrier-exchanged.

    :meth:`send` queues an envelope for the *coordinator* regardless of
    where the receiver lives; :meth:`deliver` sorts an inbound batch
    canonically and schedules it onto the shard's simulator at each
    envelope's due time.  A receive is one kernel entry: a
    :class:`~repro.sim.core.Timeout` carrying the envelope, whose callback
    runs the receive hook.  Envelopes addressed to vehicles outside this
    shard are ignored on delivery.

    :meth:`deliver` and :meth:`drain_outbox` are barrier-only: called
    while the simulator is running (from a sim process or an event
    callback) they raise, because traffic moved there would bypass the
    canonical exchange.  A process swallows its own exception, so the
    first such error is also kept in :attr:`bypass` for
    :meth:`PartitionRuntime.advance` to re-raise at the barrier.
    """

    def __init__(self, sim: Simulator, latency_s: float, local: frozenset[int]):
        if latency_s <= 0:
            raise ValueError("V2V latency must be positive")
        self.sim = sim
        self.latency_s = latency_s
        self.local = local
        self.on_send: Callable[[Envelope], None] | None = None
        self.on_receive: Callable[[Envelope], None] | None = None
        self._outbox: list[Envelope] = []
        self._seq: dict[int, int] = {}
        self.sent = 0
        self.received = 0
        self.bypass: SimulationError | None = None

    def _require_barrier(self, name: str) -> None:
        if self.sim.running:
            error = SimulationError(
                f"V2VBus.{name}() called while the simulator is running: "
                "cross-partition traffic must go through the barrier "
                "exchange in PartitionRuntime.advance"
            )
            if self.bypass is None:
                self.bypass = error
            raise error

    def send(self, src: int, dst: int, payload: Any) -> Envelope:
        """Emit one message at the current sim time (src must be local)."""
        if src not in self.local:
            raise ValueError(f"vehicle {src} is not on this partition")
        seq = self._seq.get(src, 0)
        self._seq[src] = seq + 1
        now = self.sim.now
        env = Envelope(
            src=src, dst=dst, sent_s=now, deliver_s=now + self.latency_s,
            seq=seq, payload=payload,
        )
        self._outbox.append(env)
        self.sent += 1
        if self.on_send is not None:
            self.on_send(env)
        return env

    def drain_outbox(self) -> tuple[Envelope, ...]:
        """Everything sent since the last barrier, in send order."""
        self._require_barrier("drain_outbox")
        out, self._outbox = tuple(self._outbox), []
        return out

    def deliver(self, inbound: tuple[Envelope, ...]) -> int:
        """Schedule an inbound batch; returns how many were local.

        Must be called with the clock parked at a barrier.  The batch is
        sorted canonically here, and only here, so scheduling order (and
        therefore equal-time firing order) never depends on the caller.
        """
        self._require_barrier("deliver")
        count = 0
        for env in sort_envelopes([e for e in inbound if e.dst in self.local]):
            if env.deliver_s < self.sim.now:
                raise ValueError(
                    f"stale envelope: due {env.deliver_s} but now {self.sim.now} "
                    f"(conservative sync violated)"
                )
            self.sim.timeout(env.deliver_s - self.sim.now, env).callbacks.append(
                self._receive
            )
            count += 1
        return count

    def _receive(self, due: Timeout) -> None:
        self.received += 1
        if self.on_receive is not None:
            self.on_receive(due._value)


class PartitionRuntime:
    """The in-process half of a fleet worker (also hosted directly by
    :func:`~repro.fleet.coordinator.run_inline` and the single-process
    golden reference)."""

    def __init__(self, spec: PartitionSpec):
        self.spec = spec
        self.config = spec.config
        # Metrics only: the partition ships registry state, never spans.
        self.collector = Collector(trace=False)
        self.sim = Simulator(obs=self.collector)
        # Its digest is every round's ``partition_hash``.
        self.trace = self.sim.attach_trace()
        self.bus = V2VBus(
            self.sim,
            latency_s=self.config.v2v_latency_s,
            local=frozenset(spec.vehicle_indices),
        )
        self.bus.on_send = self._on_send
        self.bus.on_receive = self._on_receive
        self.hashes = {v: VehicleTraceHash(v) for v in spec.vehicle_indices}
        # Vehicle -> its ``fleet.v2v_tx``/``fleet.v2v_rx`` counter, held
        # from the vehicle's first send/receive.
        self._v2v_tx: dict[int, Counter] = {}
        self._v2v_rx: dict[int, Counter] = {}
        self.scenarios: dict[int, DriveScenario] = {}
        self.reports: dict[int, ScenarioReport] = {}
        for v in spec.vehicle_indices:
            world = build_default_world(
                speed_mps=self.config.vehicle_speed_mps(v),
                edge_count=self.config.edge_count,
                edge_spacing_m=self.config.edge_spacing_m,
            )
            scenario = DriveScenario(
                world=world,
                seed=self.config.vehicle_seed(v),
                tick_s=self.config.tick_s,
                sim=self.sim,
                label=self.config.vehicle_label(v),
            )
            # The workload style decides how many service instances this
            # vehicle runs; copies get distinct names so the elastic
            # manager and the reports keep them apart.
            for copy in range(self.config.service_count(v)):
                service = make_adas_service(deadline_s=0.6)
                if copy:
                    service.name = f"{service.name}#{copy}"
                scenario.add_service(service, period_s=1.0)
            self.scenarios[v] = scenario
        self._launched = False

    # -- trace-hash hooks --------------------------------------------------

    def _on_send(self, env: Envelope) -> None:
        self.hashes[env.src].record_send(env)
        self._v2v_counter(self._v2v_tx, "fleet.v2v_tx", env.src).inc()

    def _on_receive(self, env: Envelope) -> None:
        self.hashes[env.dst].record_receive(env)
        self._v2v_counter(self._v2v_rx, "fleet.v2v_rx", env.dst).inc()

    def _v2v_counter(self, held: dict, metric: str, vehicle: int) -> Counter:
        series = held.get(vehicle)
        if series is None:
            series = held[vehicle] = self.collector.counter(
                metric, vehicle=self.config.vehicle_label(vehicle)
            )
        return series

    # -- vehicle processes -------------------------------------------------

    def _vehicle_invocations(self, vehicle: int) -> int:
        report = self.reports[vehicle]
        return sum(s.invocations for s in report.services.values())

    def _vehicle_misses(self, vehicle: int) -> int:
        report = self.reports[vehicle]
        return sum(s.deadline_misses for s in report.services.values())

    def _beacon_loop(
        self, vehicle: int, neighbors: tuple[int, ...], tick: Timeout | None = None
    ) -> None:
        """Periodic V2V beacon to the vehicle's ring neighbours.

        One kernel entry per tick: the first is :meth:`launch`'s
        ``call_soon`` (``tick`` is None), every later one the
        :class:`Timeout` the previous tick scheduled, with this method
        as its callback.  No tick past the drive's end schedules another.
        """
        config = self.config
        if tick is not None:
            now = self.sim.now
            if now >= config.duration_s:
                return
            position = round(self.scenarios[vehicle].world.vehicle.position(now), 3)
            payload = ("beacon", position, self._vehicle_invocations(vehicle))
            for dst in neighbors:
                self.bus.send(vehicle, dst, payload)
        self.sim.timeout(config.beacon_period_s).callbacks.append(
            partial(self._beacon_loop, vehicle, neighbors)
        )

    def launch(self) -> None:
        """Register every vehicle's drive loop and beacon (idempotent-guarded)."""
        if self._launched:
            raise RuntimeError("partition already launched")
        self._launched = True
        for v in self.spec.vehicle_indices:
            self.reports[v] = self.scenarios[v].launch(self.config.duration_s)
            self.sim.call_soon(
                partial(self._beacon_loop, v, self.config.neighbors(v))
            )

    # -- barrier rounds ----------------------------------------------------

    def advance(
        self,
        round_index: int,
        barrier_s: float,
        inbound: tuple[Envelope, ...] = (),
    ) -> RoundAck:
        """Deliver ``inbound``, simulate to ``barrier_s``, ack the round."""
        if not self._launched:
            raise RuntimeError("advance() before launch()")
        started = time.perf_counter()  # vdaplint: disable=DET001
        self.bus.deliver(inbound)
        self.sim.run(until=barrier_s)
        if self.bus.bypass is not None:
            raise self.bus.bypass
        for v in self.spec.vehicle_indices:
            self.hashes[v].record_state(
                barrier_s,
                self._vehicle_invocations(v),
                self._vehicle_misses(v),
                self.scenarios[v].dsf.energy.busy_joules(),
            )
        return RoundAck(
            round_index=round_index,
            barrier_s=barrier_s,
            outbound=self.bus.drain_outbox(),
            partition_hash=self.trace.hexdigest(),
            advance_wall_s=time.perf_counter() - started,  # vdaplint: disable=DET001
        )

    def vehicle_hashes(self) -> dict[int, str]:
        """Current per-vehicle domain-event digests."""
        return {v: h.hexdigest for v, h in self.hashes.items()}

    # -- completion --------------------------------------------------------

    def finish(self) -> FinishAck:
        """Complete every scenario and report the partition: the one way a
        partition ends, in a worker process or in-process."""
        reports: dict[int, dict[str, Any]] = {}
        for v in self.spec.vehicle_indices:
            report = self.scenarios[v].finalize()
            reports[v] = {
                "label": self.config.vehicle_label(v),
                "vehicle_energy_j": report.vehicle_energy_j,
                "services": {
                    name: {
                        "invocations": service.invocations,
                        "deadline_misses": service.deadline_misses,
                        "hung_ticks": service.hung_ticks,
                        "pipeline_switches": service.switches,
                    }
                    for name, service in sorted(report.services.items())
                },
                "v2v_records": self.hashes[v].records,
            }
        return FinishAck(
            partition=self.spec.partition,
            partition_hash=self.trace.hexdigest(),
            vehicle_hashes=self.vehicle_hashes(),
            events_fired=self.sim.events_fired,
            metrics=self.metrics_snapshot(),
            vehicle_reports=reports,
        )

    def metrics_snapshot(self) -> dict:
        """The partition collector's mergeable metric state.

        Histograms carry no quantile estimates: the coordinator merges and
        views only the mergeable fields, so replaying the partition's
        sample logs through P-squared would be wasted work.
        """
        return self.collector.registry.state()
