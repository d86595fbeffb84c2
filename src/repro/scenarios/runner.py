"""Matrix runner: execute compiled scenario cells and cross-check them.

A :class:`~repro.scenarios.compiler.Scenario` is a list of lowered
:class:`~repro.fleet.config.FleetConfig` cells; this module runs them
through the fleet substrate's one barrier exchange in any of three modes
and (optionally) asserts the substrate's correctness contract per cell
-- that the partitioned run's per-vehicle blake2b trace hashes, merged
metrics and fired-event count equal the single-process reference of the
same config.

The modes differ only in where the partitions live:

* ``inline`` -- :func:`~repro.fleet.coordinator.run_inline`: every
  partition runtime hosted in-process (the default; exercises shard
  geometry without process spawn cost);
* ``processes`` -- :class:`~repro.fleet.coordinator.FleetCoordinator`:
  real worker processes, fault plans armed;
* ``reference`` -- :func:`~repro.fleet.coordinator.run_single_process`:
  the golden reference, ``run_inline`` with one partition.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..fleet.coordinator import (
    FleetCoordinator,
    FleetResult,
    run_inline,
    run_single_process,
)
from .compiler import CompiledCell, Scenario

__all__ = ["CellOutcome", "MODES", "run_cell", "run_matrix"]

MODES: tuple[str, ...] = ("inline", "processes", "reference")


@dataclass
class CellOutcome:
    """One executed cell: its result plus the optional reference verdict."""

    cell: CompiledCell
    result: FleetResult
    #: None when the cell ran unchecked; else whether hashes, merged
    #: metrics and events fired all equal the reference's.
    reference_ok: bool | None = None

    @property
    def name(self) -> str:
        return self.cell.name


def run_cell(cell: CompiledCell, mode: str = "inline",
             check: bool = False) -> CellOutcome:
    """Execute one cell; ``check`` re-runs the reference and compares."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r} (have: {', '.join(MODES)})")
    if mode == "inline":
        result = run_inline(cell.config)
    elif mode == "processes":
        with FleetCoordinator(cell.config) as coordinator:
            result = coordinator.run()
    else:
        result = run_single_process(cell.config)
    verdict: bool | None = None
    if check:
        reference = run_single_process(cell.config)
        verdict = (
            result.vehicle_hashes == reference.vehicle_hashes
            and result.metrics == reference.metrics
            and result.stats.events_fired == reference.stats.events_fired
        )
    return CellOutcome(cell=cell, result=result, reference_ok=verdict)


def run_matrix(scenario: Scenario, mode: str = "inline",
               check: bool = False) -> list[CellOutcome]:
    """Execute every cell of a scenario's matrix, in matrix order."""
    return [run_cell(cell, mode=mode, check=check)
            for cell in scenario.cells]
