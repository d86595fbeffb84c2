"""Fleet workload styles: per-vehicle service-load shapes.

A :class:`WorkloadStyle` answers one question deterministically: how
many managed service instances does vehicle ``i`` run?  ``uniform`` is
the PR-6 fleet (one ADAS service everywhere); ``skewed`` gives every
``heavy_stride``-th vehicle a stack of services, which is what makes
round-robin sharding pathological (the heavies land on one partition)
and cost-balanced plans worth emitting.  Styles carry no cost figures:
the planner (:func:`repro.fleet.plan.vehicle_costs`) measures what
each vehicle's services cost by running them.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["STYLES", "WorkloadStyle"]


@dataclass(frozen=True)
class WorkloadStyle:
    """One named per-vehicle load shape."""

    name: str
    base_services: int = 1
    heavy_services: int = 1
    #: Every Nth vehicle (0, N, 2N, ...) is heavy; 0 disables heavies.
    heavy_stride: int = 0
    #: Explicit per-vehicle service counts (scenario rosters).  Non-empty
    #: tables override the stride rule; indices wrap, so a table built
    #: for N vehicles stays total for any probe index.
    service_table: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self, "service_table", tuple(int(n) for n in self.service_table)
        )
        if any(n < 0 for n in self.service_table):
            raise ValueError("service_table entries must be non-negative")

    def is_heavy(self, vehicle: int) -> bool:
        return self.heavy_stride > 0 and vehicle % self.heavy_stride == 0

    def service_count(self, vehicle: int) -> int:
        """Managed service instances vehicle ``vehicle`` runs."""
        if self.service_table:
            return self.service_table[vehicle % len(self.service_table)]
        return self.heavy_services if self.is_heavy(vehicle) else self.base_services


#: The shipped styles.  ``skewed`` with stride 4 is deliberately adverse
#: to round-robin at 8 vehicles / 4 partitions: vehicles 0 and 4 -- the
#: two heavies -- both land on partition 0 under ``i % partitions``.
STYLES: dict[str, WorkloadStyle] = {
    "uniform": WorkloadStyle("uniform"),
    "skewed": WorkloadStyle("skewed", base_services=1, heavy_services=7,
                            heavy_stride=4),
}
