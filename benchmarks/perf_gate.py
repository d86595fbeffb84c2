"""CI perf-floor gate over the fleet throughput bench.

Snapshots the *committed* ``results/BENCH_fleet.json`` (the baseline the
repo promises), reruns ``bench_fleet_throughput.py`` -- which refreshes
that JSON in place and re-audits every partitioning against the
single-process trace hashes -- and fails if any mode's vehicle-sim
seconds per wall second (``vsim_per_wall``) fell more than the allowed
regression (default 20%) below its committed number.  The floor is on
simulated time per wall second, not events per second: a change that
fires fewer kernel events for the same drive is faster, not slower.  A passing run also copies the refreshed JSON to the repo root
``BENCH_fleet.json`` -- the headline numbers the README links -- so a
passing run's numbers become reviewable in the PR diff in both places.

Usage::

    python perf_gate.py [--max-regression 0.20] [--results PATH] [--skip-run]

``--skip-run`` compares an already-refreshed results file against a
baseline snapshot taken with ``--baseline`` (for local what-if checks).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

RESULTS = os.path.join(os.path.dirname(__file__), "results", "BENCH_fleet.json")

#: The headline copy at the repo root, kept in lockstep by passing runs.
ROOT_RESULTS = os.path.join(
    os.path.dirname(__file__), os.pardir, "BENCH_fleet.json"
)


def load_vsim_per_wall(path: str) -> dict[str, float]:
    """Map of bench mode -> vehicle-sim seconds per wall second from a
    BENCH_fleet report."""
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    return {row["mode"]: row["vsim_per_wall"] for row in report["rows"]}


def run_bench() -> int:
    """Rerun the fleet bench (refreshes results/ in place).

    The bench runs with ``cwd=benchmarks/``, so any relative PYTHONPATH
    entries (CI uses ``PYTHONPATH=src``) are absolutized first.
    """
    here = os.path.dirname(os.path.abspath(__file__)) or "."
    env = dict(os.environ)
    entries = [os.path.abspath(e)
               for e in env.get("PYTHONPATH", "").split(os.pathsep) if e]
    src = os.path.abspath(os.path.join(here, os.pardir, "src"))
    if src not in entries:
        entries.append(src)
    env["PYTHONPATH"] = os.pathsep.join(entries)
    return subprocess.call(
        [sys.executable, "-m", "pytest", "-x", "-q", "bench_fleet_throughput.py"],
        cwd=here,
        env=env,
    )


def check(baseline: dict[str, float], fresh: dict[str, float],
          max_regression: float) -> list[str]:
    """Per-mode verdicts; raises SystemExit on any floor breach."""
    failures, lines = [], []
    for mode, committed in sorted(baseline.items()):
        measured = fresh.get(mode)
        if measured is None:
            failures.append(f"mode {mode!r} vanished from the fresh run")
            continue
        floor = committed * (1.0 - max_regression)
        ratio = measured / committed
        verdict = "ok" if measured >= floor else "REGRESSION"
        lines.append(
            f"{mode:>10}: {measured:9.0f} veh.s/s vs committed {committed:9.0f}"
            f"  ({ratio:5.2f}x, floor {floor:.0f})  {verdict}"
        )
        if measured < floor:
            failures.append(
                f"{mode}: {measured:.0f} veh.s/s is below the {floor:.0f} floor "
                f"({ratio:.2f}x of committed {committed:.0f})"
            )
    for extra in sorted(set(fresh) - set(baseline)):
        lines.append(f"{extra:>10}: {fresh[extra]:9.0f} veh.s/s (new mode, no floor)")
    print("\n".join(lines))
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-regression", type=float, default=0.20,
                        help="allowed fractional vsim_per_wall drop per mode")
    parser.add_argument("--results", default=RESULTS,
                        help="BENCH_fleet.json path (committed + refreshed)")
    parser.add_argument("--baseline", default=None,
                        help="explicit baseline JSON (default: snapshot of "
                             "--results before the run)")
    parser.add_argument("--skip-run", action="store_true",
                        help="compare existing files; do not rerun the bench")
    parser.add_argument("--root-copy", default=ROOT_RESULTS,
                        help="where a passing run publishes the refreshed "
                             "results (default: repo-root BENCH_fleet.json; "
                             "empty string disables)")
    args = parser.parse_args(argv)

    baseline = load_vsim_per_wall(args.baseline or args.results)
    if not args.skip_run:
        status = run_bench()
        if status != 0:
            print(f"perf gate: bench run failed (exit {status})", file=sys.stderr)
            return status
    fresh = load_vsim_per_wall(args.results)

    failures = check(baseline, fresh, args.max_regression)
    if failures:
        print("perf gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"perf gate passed (max regression allowed: "
          f"{args.max_regression:.0%})")
    if args.root_copy:
        shutil.copyfile(args.results, args.root_copy)
        print(f"refreshed results copied to {os.path.normpath(args.root_copy)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
