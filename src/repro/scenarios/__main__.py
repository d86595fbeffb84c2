"""Command line for scenario files: expand, run, and check matrices.

Usage::

    python -m repro.scenarios expand scenarios/fleet_smoke.yaml
    python -m repro.scenarios run scenarios/fleet_smoke.yaml --check
    python -m repro.scenarios run scenarios/skewed_sweep.yaml \\
        --cell 2 --mode processes

``run --check`` re-executes every cell's single-process reference
and compares per-vehicle trace hashes, merged metrics and events fired;
any divergence exits non-zero.
Validation failures print the same ``file:line: RULE message`` findings
``vdaplint --scenarios`` emits and exit 2, as does a ``--cell`` index
the matrix does not have.
"""

from __future__ import annotations

import argparse
import sys

from .compiler import Scenario, ScenarioError, load_scenario
from .runner import MODES, run_cell, run_matrix
from .yamlish import ScenarioSyntaxError

__all__ = ["main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="run and inspect declarative fleet scenarios",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    expand = commands.add_parser(
        "expand", help="list the matrix cells a scenario expands into"
    )
    expand.add_argument("file", help="scenario file to expand")

    run = commands.add_parser("run", help="execute a scenario's matrix")
    run.add_argument("file", help="scenario file to run")
    run.add_argument("--mode", choices=MODES, default="inline",
                     help="execution backend (default: inline)")
    run.add_argument("--cell", type=int, default=None,
                     help="run one matrix cell by index (default: all)")
    run.add_argument("--check", action="store_true",
                     help="compare each cell against the single-process "
                          "reference")
    return parser


def _load(path: str) -> Scenario:
    try:
        return load_scenario(path)
    except (ScenarioError, ScenarioSyntaxError) as exc:
        print(exc, file=sys.stderr)
        raise SystemExit(2) from exc


def _cmd_expand(args: argparse.Namespace) -> int:
    scenario = _load(args.file)
    print(f"{scenario.name}: {len(scenario.cells)} cell(s)")
    for index, cell in enumerate(scenario.cells):
        config = cell.config
        print(
            f"  [{index}] {cell.name}: vehicles={config.vehicles} "
            f"partitions={config.partitions} duration={config.duration_s:g}s "
            f"workload={config.workload}"
        )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = _load(args.file)
    if args.cell is not None:
        try:
            cell = scenario.cell(args.cell)
        except IndexError as exc:
            print(exc, file=sys.stderr)
            return 2
        outcomes = [run_cell(cell, mode=args.mode, check=args.check)]
    else:
        outcomes = run_matrix(scenario, mode=args.mode, check=args.check)
    failed = 0
    for outcome in outcomes:
        stats = outcome.result.stats
        sample = next(iter(sorted(outcome.result.vehicle_hashes.items())), None)
        digest = f" cav0={sample[1][:12]}" if sample else ""
        if outcome.reference_ok is None:
            verdict = ""
        elif outcome.reference_ok:
            verdict = "  hashes, metrics and events MATCH reference"
        else:
            verdict = "  DIVERGES from reference"
            failed += 1
        print(
            f"{outcome.name}: {stats.events_fired} events / "
            f"{stats.rounds} rounds{digest}{verdict}"
        )
    if failed:
        print(f"{failed} cell(s) diverged from the reference",
              file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    """Entry point for ``python -m repro.scenarios``."""
    args = build_parser().parse_args(argv)
    if args.command == "expand":
        return _cmd_expand(args)
    return _cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
