#!/usr/bin/env python3
"""Regenerate ``pins.json``: the paper-cli outputs for seeds 0..63.

Run from the repository root after an intended change to Figure 2,
Table I or the drive:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/pin.py

Seed 0 must reproduce the committed ``benchmarks/results`` Figure 2 and
Table I values; the script refuses to write pins that do not.
"""

import json
import shutil
import sys
import tempfile

from workloads import PINS_PATH, ROOT, PaperCli, committed_paper_outputs

PINNED_SEEDS = 64


def main() -> int:
    pins = {}
    workdir = tempfile.mkdtemp(prefix="perfbench-pin-", dir=ROOT)
    try:
        for seed in range(PINNED_SEEDS):
            pins[str(seed)] = PaperCli(seed, workdir).run().outputs
            print(f"seed {seed} pinned", file=sys.stderr)
    finally:
        shutil.rmtree(workdir)
    committed = committed_paper_outputs(ROOT)
    differs = sorted(k for k, v in committed.items() if pins["0"].get(k) != v)
    if differs:
        print(f"seed 0 differs from benchmarks/results: {differs}",
              file=sys.stderr)
        return 1
    with open(PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump({"paper-cli": pins}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
