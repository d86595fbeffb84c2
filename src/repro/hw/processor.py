"""Processor models for the heterogeneous vehicle computing unit (VCU).

A processor is described by its *peak* arithmetic throughput (from spec
sheets) and a per-workload-class efficiency factor (the fraction of peak a
real kernel of that class sustains).  Execution time for a task is then

    time = overhead + work_ops / (peak_gops * efficiency[class])

This is the standard roofline-style first-order model; it reproduces the
orderings and ratios that the paper's Figure 3 and Table I report without
needing the physical silicon.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = ["ProcessorKind", "WorkloadClass", "ProcessorModel"]


class ProcessorKind(enum.Enum):
    """Hardware families the VCU's 1stHEP integrates (paper SIV-B)."""

    CPU = "cpu"
    GPU = "gpu"
    FPGA = "fpga"
    ASIC = "asic"
    DSP = "dsp"
    MOBILE = "mobile"  # 2ndHEP: passenger devices, legacy on-board controller


class WorkloadClass(enum.Enum):
    """Coarse task classes the DSF matches against processors (paper SIV-B2)."""

    DNN = "dnn"            # dense tensor math (CNN inference/training)
    VISION = "vision"      # classic CV: filters, integral images, Hough
    SIGNAL = "signal"      # codec / compression / feature extraction
    CONTROL = "control"    # branchy scalar logic, diagnostics rules
    IO = "io"              # (de)serialization, storage-bound


# Default sustained-fraction-of-peak per (processor kind, workload class).
# CPUs run everything acceptably; accelerators are great at their target
# class and poor or unusable elsewhere.  Values are typical utilization
# numbers for batch-1 latency-oriented kernels.
_DEFAULT_EFFICIENCY: dict[ProcessorKind, dict[WorkloadClass, float]] = {
    ProcessorKind.CPU: {
        WorkloadClass.DNN: 0.17,
        WorkloadClass.VISION: 0.12,
        WorkloadClass.SIGNAL: 0.25,
        WorkloadClass.CONTROL: 0.30,
        WorkloadClass.IO: 0.30,
    },
    ProcessorKind.GPU: {
        WorkloadClass.DNN: 0.075,
        WorkloadClass.VISION: 0.06,
        WorkloadClass.SIGNAL: 0.05,
        WorkloadClass.CONTROL: 0.002,
        WorkloadClass.IO: 0.002,
    },
    ProcessorKind.FPGA: {
        WorkloadClass.DNN: 0.30,
        WorkloadClass.VISION: 0.35,
        WorkloadClass.SIGNAL: 0.45,
        WorkloadClass.CONTROL: 0.02,
        WorkloadClass.IO: 0.05,
    },
    ProcessorKind.ASIC: {
        WorkloadClass.DNN: 0.60,
        WorkloadClass.VISION: 0.10,
        WorkloadClass.SIGNAL: 0.10,
        WorkloadClass.CONTROL: 0.0,
        WorkloadClass.IO: 0.0,
    },
    ProcessorKind.DSP: {
        WorkloadClass.DNN: 0.34,
        WorkloadClass.VISION: 0.20,
        WorkloadClass.SIGNAL: 0.40,
        WorkloadClass.CONTROL: 0.01,
        WorkloadClass.IO: 0.01,
    },
    ProcessorKind.MOBILE: {
        WorkloadClass.DNN: 0.10,
        WorkloadClass.VISION: 0.10,
        WorkloadClass.SIGNAL: 0.15,
        WorkloadClass.CONTROL: 0.25,
        WorkloadClass.IO: 0.25,
    },
}


@dataclass
class ProcessorModel:
    """First-order latency/power model of one compute device.

    Parameters
    ----------
    name:
        Human-readable device name (e.g. ``"NVIDIA Tesla V100"``).
    kind:
        Hardware family; selects the default efficiency table.
    peak_gops:
        Peak arithmetic throughput in Gop/s from the spec sheet (fp32
        FLOPs for CPU/GPU, MACs*2 for DSP/ASIC).
    tdp_watts:
        Maximum (thermal design) power draw while busy.
    idle_watts:
        Power draw while idle; defaults to 10% of TDP.
    memory_gb:
        Device memory; models cannot run if their footprint exceeds it.
    launch_overhead_s:
        Fixed per-task dispatch cost (driver/queue latency).
    efficiency:
        Optional override of the sustained-fraction table.
    """

    name: str
    kind: ProcessorKind
    peak_gops: float
    tdp_watts: float
    idle_watts: float | None = None
    memory_gb: float = 8.0
    launch_overhead_s: float = 0.0
    efficiency: dict[WorkloadClass, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.peak_gops <= 0:
            raise ValueError(f"peak_gops must be positive, got {self.peak_gops}")
        if self.idle_watts is None:
            self.idle_watts = 0.1 * self.tdp_watts
        merged = dict(_DEFAULT_EFFICIENCY[self.kind])
        merged.update(self.efficiency)
        self.efficiency = merged
        # Sustained Gop/s per workload, keyed by the enum's value string:
        # an enum key would run Enum.__hash__ in Python on every lookup.
        self._gops = {
            workload._value_: self.peak_gops * eff
            for workload, eff in merged.items()
        }

    def effective_gops(self, workload: WorkloadClass) -> float:
        """Sustained throughput for a workload class, in Gop/s."""
        return self._gops[workload._value_]

    def supports(self, workload: WorkloadClass) -> bool:
        """Whether this device can run the class at all (eff > 0)."""
        return self._gops.get(workload._value_, 0.0) > 0.0

    def execution_time(
        self, work_gop: float, workload: WorkloadClass, slowdown: float = 1.0
    ) -> float:
        """Seconds to execute ``work_gop`` giga-ops of the given class.

        ``slowdown`` >= 1 models a degraded device (thermal throttling, a
        PROCESSOR_SLOW fault window): sustained throughput is divided by it.
        """
        if work_gop < 0:
            raise ValueError(f"work must be non-negative, got {work_gop}")
        if slowdown < 1.0:
            raise ValueError(f"slowdown must be >= 1, got {slowdown}")
        effective = self.effective_gops(workload)
        if effective <= 0:
            raise ValueError(f"{self.name} cannot execute {workload.value} tasks")
        return self.launch_overhead_s + work_gop * slowdown / effective

    def energy(self, busy_s: float) -> float:
        """Joules consumed while busy for the given duration."""
        return self.tdp_watts * busy_s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProcessorModel({self.name!r}, {self.kind.value}, "
            f"{self.peak_gops} Gop/s, {self.tdp_watts} W)"
        )
