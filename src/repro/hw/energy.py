"""Energy accounting and EV battery model.

The paper's SIII-B argument is that power-hungry local processors are
impracticable for vehicles (especially EVs, where compute draw reduces
mileage per discharge cycle).  These models quantify that argument so the
offloading ablations can report energy alongside latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .processor import ProcessorModel

__all__ = ["EnergyMeter", "EVBattery"]


@dataclass
class EnergyMeter:
    """Accumulates busy/idle energy per device over a simulation run."""

    _busy_joules: dict[str, float] = field(default_factory=dict)
    _busy_seconds: dict[str, float] = field(default_factory=dict)

    def record_busy(self, processor: ProcessorModel, busy_s: float) -> float:
        """Account ``busy_s`` seconds of busy time on ``processor``; returns joules."""
        if busy_s < 0:
            raise ValueError("busy time must be non-negative")
        joules = processor.energy(busy_s)
        self._busy_joules[processor.name] = (
            self._busy_joules.get(processor.name, 0.0) + joules
        )
        self._busy_seconds[processor.name] = (
            self._busy_seconds.get(processor.name, 0.0) + busy_s
        )
        return joules

    def busy_joules(self, name: str | None = None) -> float:
        if name is not None:
            return self._busy_joules.get(name, 0.0)
        return sum(self._busy_joules.values())

    def busy_seconds(self, name: str) -> float:
        return self._busy_seconds.get(name, 0.0)

    def report(self) -> dict[str, float]:
        """Busy joules per device name."""
        return dict(self._busy_joules)


@dataclass
class EVBattery:
    """Electric-vehicle battery: compute energy trades off against range.

    ``drive_efficiency_wh_per_km`` is the traction cost: every joule spent
    on compute is range the vehicle cannot drive.
    """

    drive_efficiency_wh_per_km: float = 160.0

    def range_cost_km(self, joules: float) -> float:
        """Driving range given up by spending ``joules`` on compute."""
        return (joules / 3600.0) / self.drive_efficiency_wh_per_km
