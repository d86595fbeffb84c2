"""The vdaplint command line: ``python -m repro.analysis`` / ``vdaplint``.

Exit codes are stable so CI can gate on them:

* ``0`` -- no (non-baselined) findings
* ``1`` -- findings reported (including files that fail to parse)
* ``2`` -- usage error (unknown rule id, missing path, bad baseline file,
  incoherent flag combinations)

The per-file and semantic rules run in one serial pass over every
Python file; ``--scenarios`` additionally validates scenario DSL files.
Both share the same reporting/baseline/pragma machinery.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .baseline import Baseline, fingerprint_findings
from .engine import Rule, discover_files
from .reporter import render_json, render_text
from .rules import default_rules, rules_by_id
from .scenario import (
    ScenarioAnalyzer,
    discover_scenario_files,
    scenario_rules,
    scenario_rules_by_id,
)
from .semantic import analyze_files, semantic_rules, semantic_rules_by_id

__all__ = ["build_parser", "main"]

DEFAULT_BASELINE = ".vdaplint-baseline.json"


def build_parser() -> argparse.ArgumentParser:
    """The vdaplint argument parser (exposed for --help tests)."""
    parser = argparse.ArgumentParser(
        prog="vdaplint",
        description=(
            "AST-based determinism & safety linter for the OpenVDAP "
            "reproduction: one shared tree walk per file, a semantic "
            "unit/resource pass, optional scenario validation, pragma "
            "suppression, and a baseline for grandfathered findings."
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
        "--baseline", default=DEFAULT_BASELINE, metavar="PATH",
        help=f"baseline file of grandfathered findings (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help=(
            "record all current findings into the baseline file (dropping "
            "fingerprints that no longer match anything) and exit 0"
        ),
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="ignore the baseline: every finding counts, grandfathered or not",
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
) -> tuple[list[Rule], list[Rule], list[Rule]]:
    """Split the selection into (per-file, semantic, scenario)."""
    file_catalogue = rules_by_id()
    semantic_catalogue = semantic_rules_by_id()
    scenario_catalogue = scenario_rules_by_id()
    catalogue = {**file_catalogue, **semantic_catalogue, **scenario_catalogue}

    def parse_ids(raw: str) -> list[str]:
        ids = [part.strip() for part in raw.split(",") if part.strip()]
        for rule_id in ids:
            if rule_id not in catalogue:
                parser.error(f"unknown rule id: {rule_id}")
        return ids

    if select:
        chosen = [catalogue[rule_id] for rule_id in parse_ids(select)]
    else:
        chosen = default_rules() + semantic_rules() + scenario_rules()
    if ignore:
        skipped = set(parse_ids(ignore))
        chosen = [rule for rule in chosen if rule.id not in skipped]
    file_rules = [r for r in chosen if r.id in file_catalogue]
    semantic_pack = [r for r in chosen if r.id in semantic_catalogue]
    scenario_pack = [r for r in chosen if r.id in scenario_catalogue]
    return file_rules, semantic_pack, scenario_pack


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in default_rules():
            print(f"{rule.id}  {rule.name}: {rule.description}")
        for rule in semantic_rules():
            print(f"{rule.id}  {rule.name} [semantic]: {rule.description}")
        for rule in scenario_rules():
            print(f"{rule.id}  {rule.name} [scenario]: {rule.description}")
        return 0

    file_rules, semantic_pack, scenario_pack = _pick_rules(
        args.select, args.ignore, parser
    )
    if args.select and scenario_pack and not args.scenarios:
        parser.error(
            "scenario rules selected "
            f"({', '.join(sorted(r.id for r in scenario_pack))}) "
            "but --scenarios not given"
        )

    try:
        files = discover_files(args.paths)
    except FileNotFoundError as err:
        parser.error(f"no such path: {err.args[0]}")
    scenario_files: list[str] = []
    if args.scenarios:
        try:
            scenario_files = discover_scenario_files(args.paths)
        except FileNotFoundError as err:
            parser.error(f"no such path: {err.args[0]}")

    findings = analyze_files(files, file_rules, semantic_pack)

    if args.scenarios and scenario_files:
        scenario_findings = ScenarioAnalyzer(scenario_pack).analyze_files(
            scenario_files
        )
        findings = sorted(findings + scenario_findings)

    if args.write_baseline:
        previous = Baseline()
        try:
            previous = Baseline.load(args.baseline)
        except ValueError:
            pass  # corrupt old baseline: overwrite it wholesale
        current = fingerprint_findings(findings)
        dropped = len(previous.fingerprints - set(current))
        Baseline(current).save(args.baseline)
        message = (
            f"wrote {len(findings)} fingerprint"
            f"{'s' if len(findings) != 1 else ''} to {args.baseline}"
        )
        if dropped:
            message += f" ({dropped} stale dropped)"
        print(message)
        return 0

    baselined_count = 0
    stale_count = 0
    if args.strict:
        try:
            existing = Baseline.load(args.baseline)
        except ValueError:
            existing = Baseline()
        if len(existing):
            print(
                f"vdaplint: warning: --strict ignores the non-empty baseline "
                f"{args.baseline} ({len(existing)} fingerprints); delete it "
                "or re-run --write-baseline",
                file=sys.stderr,
            )
    else:
        try:
            baseline = Baseline.load(args.baseline)
        except ValueError as err:
            parser.error(str(err))
        stale_count = len(baseline.stale_fingerprints(findings))
        findings, grandfathered = baseline.partition(findings)
        baselined_count = len(grandfathered)

    render = render_json if args.format == "json" else render_text
    print(render(findings, files_scanned=len(files) + len(scenario_files),
                 baselined=baselined_count,
                 stale=stale_count))
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
