"""Record the Monte Carlo reference values the simulation-studies checks use.

Run from the repository root:

    OPENBLAS_NUM_THREADS=1 python3 perfbench/record_reference.py > perfbench/reference.json

The table-1 reference is the paper-default study at 10,000 replicates,
each cell and target stored as [value, Monte Carlo standard error], and
the power reference is 2,000 replicates per signal scale; both are far
tighter than the short runs the benchmark checks against them.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from stratavar import run_power_curve, run_table1  # noqa: E402

from worker import POWER_A_GRID  # noqa: E402

TABLE1_REPS = 10_000
POWER_REPS = 2_000


def main() -> None:
    table1 = run_table1(reps=TABLE1_REPS, seed=0, threads=1)
    power = run_power_curve(a_grid=POWER_A_GRID, reps=POWER_REPS, seed=0, threads=1)
    out = {
        "table1": {
            "reps": TABLE1_REPS,
            "seed": 0,
            "cells": {f"{c['estimator']}/{c['qspec']}": [c["mean"], c["mc_se"]] for c in table1.cells},
            "targets": {k: [v["value"], v["mc_se"]] for k, v in table1.targets.items()},
        },
        "power": {
            "reps": POWER_REPS,
            "seed": 0,
            "rates": {f"{r['a']}/{r['qspec']}": r["rate"] for r in power},
        },
    }
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
