"""The vdaplint command line: ``python -m repro.analysis`` / ``vdaplint``.

Exit codes are stable so CI can gate on them:

* ``0`` -- no findings
* ``1`` -- findings reported (including files that fail to parse)
* ``2`` -- usage error (unknown rule id, missing path, unknown flag,
  incoherent flag combinations)

Every finding counts; none is grandfathered.

The per-file rules run in one serial pass over every Python file;
``--scenarios`` additionally validates scenario DSL files.  Both share
the same reporting and pragma machinery.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .engine import LintEngine, Rule, discover_files
from .reporter import render_json, render_text
from .rules import default_rules, rules_by_id
from .scenario import (
    SCENARIO_EXTENSIONS,
    ScenarioAnalyzer,
    scenario_rules,
    scenario_rules_by_id,
)

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """The vdaplint argument parser (exposed for --help tests)."""
    parser = argparse.ArgumentParser(
        prog="vdaplint",
        description=(
            "AST-based determinism & safety linter for the OpenVDAP "
            "reproduction: one shared tree walk per file, optional "
            "scenario validation and pragma suppression."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format", "-f", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select", metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore", metavar="IDS",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--scenarios", action="store_true",
        help=(
            "also validate scenario DSL files (.yaml/.yml under the given "
            "paths): schema/unit/reference checks (SCN001-003), the "
            "compiler's per-cell lowering failures (SCN001), and the "
            "matrix-budget check (SCN005), with file:line findings"
        ),
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _pick_rules(
    select: Optional[str], ignore: Optional[str],
    parser: argparse.ArgumentParser,
) -> tuple[list[Rule], list[Rule]]:
    """Split the selection into (per-file, scenario)."""
    file_catalogue = rules_by_id()
    scenario_catalogue = scenario_rules_by_id()
    catalogue = {**file_catalogue, **scenario_catalogue}

    def parse_ids(raw: str) -> list[str]:
        ids = [part.strip() for part in raw.split(",") if part.strip()]
        for rule_id in ids:
            if rule_id not in catalogue:
                parser.error(f"unknown rule id: {rule_id}")
        return ids

    if select:
        chosen = [catalogue[rule_id] for rule_id in parse_ids(select)]
    else:
        chosen = default_rules() + scenario_rules()
    if ignore:
        skipped = set(parse_ids(ignore))
        chosen = [rule for rule in chosen if rule.id not in skipped]
    file_rules = [r for r in chosen if r.id in file_catalogue]
    scenario_pack = [r for r in chosen if r.id in scenario_catalogue]
    return file_rules, scenario_pack


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in default_rules():
            print(f"{rule.id}  {rule.name}: {rule.description}")
        for rule in scenario_rules():
            print(f"{rule.id}  {rule.name} [scenario]: {rule.description}")
        return 0

    file_rules, scenario_pack = _pick_rules(args.select, args.ignore, parser)
    if args.select and scenario_pack and not args.scenarios:
        parser.error(
            "scenario rules selected "
            f"({', '.join(sorted(r.id for r in scenario_pack))}) "
            "but --scenarios not given"
        )

    try:
        files = discover_files(args.paths)
        scenario_files = (discover_files(args.paths, SCENARIO_EXTENSIONS)
                          if args.scenarios else [])
    except FileNotFoundError as err:
        parser.error(f"no such path: {err.args[0]}")

    findings = LintEngine(file_rules).lint_paths(files)

    if args.scenarios and scenario_files:
        scenario_findings = ScenarioAnalyzer(scenario_pack).analyze_files(
            scenario_files
        )
        findings = sorted(findings + scenario_findings)

    render = render_json if args.format == "json" else render_text
    print(render(findings, files_scanned=len(files) + len(scenario_files)))
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
