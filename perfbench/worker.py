"""One benchmark workload in a fresh interpreter.

run.py starts this file once per measurement; it is not meant to be run by
hand. The process imports stratavar from the checkout's ``src``, runs one
untimed warm-up op and prints ``ready`` (the parent times set-up up to that
line). In ``setup`` mode it then exits. In ``run`` mode it runs whole
passes over the workload's ops as a closed loop (the next op starts when
the previous one ends) until ``--seconds`` have passed. In ``trace`` mode
it runs the passes untraced for half the time, then the same ops again
with spans around every public call. Results go to ``--out`` as JSON.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import stratavar as sv  # noqa: E402
import stratavar.cli  # noqa: E402,F401  (binds sv.cli)

import generate  # noqa: E402
import spans  # noqa: E402

# simulation-studies: the (call, reps) of the ops of one pass, in op order.
# Op sizes rise in steps of 2**(1/7) over a factor of two (about 0.35 to 0.7 s
# per op on a 2-core Xeon VM), for the reason given in generate.py.
STUDY_PASS = (
    ("table1", 177), ("power", 28), ("table1", 261), ("power", 19),
    ("table1", 319), ("power", 34), ("table1", 217), ("power", 23),
)
POWER_A_GRID = (1.0, 1.5)
POWER_QSPECS = ("correct", "incorrect")
POWER_MAX_DRAWS = 999
WARMUP_INDEX = 2**20  # an op index no run reaches, at the pass's first position
Q_SPEC = ["--q-spec", "x1,x2", "--poly", "2"]


def _cli(argv: list[str]) -> list:
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sv.cli.main(argv)
    return [code, out.getvalue(), err.getvalue()]


class TrialAnalysis:
    """One op: analyze then hettest on one experiment file, through the CLI.

    The large trials run once, ahead of the passes (``lead_in``).
    """

    def __init__(self, manifest: dict):
        self.files = manifest["ops"]
        self.lead_in = list(range(manifest["lead_in"]))
        self.warmup = min(self.pass_indices(0), key=lambda i: self.files[i]["n_units"])

    def pass_indices(self, _pass_no: int) -> list[int]:
        return list(range(len(self.lead_in), len(self.files)))

    def run(self, index: int) -> dict:
        f = self.files[index]
        common = ["--csv", f["csv"], *Q_SPEC]
        analyze = _cli(["analyze", *common])
        hettest = _cli(
            ["hettest", *common, "--max-draws", str(f["max_draws"]), "--seed", str(f["hettest_seed"])]
        )
        return {"analyze": analyze, "hettest": hettest}


class SimulationStudies:
    """Ops alternate run_table1 and run_power_curve, each with a fresh seed."""

    def __init__(self, manifest: dict):
        self.seed = manifest["seed"]
        self.lead_in = []
        self.warmup = WARMUP_INDEX

    def pass_indices(self, pass_no: int) -> list[int]:
        n = len(STUDY_PASS)
        return list(range(n * pass_no, n * (pass_no + 1)))

    def run(self, index: int) -> dict:
        seed = generate.study_seed(self.seed, index)
        kind, reps = STUDY_PASS[index % len(STUDY_PASS)]
        if kind == "table1":
            result = sv.run_table1(reps=reps, seed=seed, threads=1)
            return {
                "kind": "table1",
                "cells": {f"{c['estimator']}/{c['qspec']}": [c["mean"], c["mc_se"]] for c in result.cells},
                "targets": {k: [v["value"], v["mc_se"]] for k, v in result.targets.items()},
            }
        rows = sv.run_power_curve(
            a_grid=POWER_A_GRID,
            reps=reps,
            max_draws=POWER_MAX_DRAWS,
            seed=seed,
            threads=1,
            qspecs=POWER_QSPECS,
            collect_raw=True,
        )
        return {"kind": "power", "rows": rows}


WORKLOADS = {
    "trial-analysis": TrialAnalysis,
    "simulation-studies": SimulationStudies,
}


def run_op(workload, index: int) -> tuple[float, dict | None, str | None]:
    """Latency in ms, output, and the error an op raised (None if it returned)."""
    t0 = time.perf_counter()
    try:
        out, err = workload.run(index), None
    except Exception as exc:  # a failed op is counted, and the loop goes on
        out, err = None, f"{type(exc).__name__}: {exc}"
    return (time.perf_counter() - t0) * 1e3, out, err


def closed_loop(workload, seconds: float) -> tuple[list, float]:
    """The lead-in ops, then whole passes until ``seconds`` have elapsed.

    Returns the ops as [index, ms, output, error] and the wall time.
    """
    ops = []
    start = time.perf_counter()
    for index in workload.lead_in:
        ms, out, err = run_op(workload, index)
        ops.append([index, ms, out, err])
    pass_no = 0
    while True:
        for index in workload.pass_indices(pass_no):
            ms, out, err = run_op(workload, index)
            ops.append([index, ms, out, err])
        pass_no += 1
        wall = time.perf_counter() - start
        if wall >= seconds:
            return ops, wall


def traced_loop(workload, order: list[int], spans_path: Path) -> tuple[list, float, spans.SpanTable]:
    """The given ops again, each under a bench.op span, with every public call traced."""
    tracer = spans.Tracer()
    restore = tracer.install()
    ops = []
    start = time.perf_counter()
    try:
        for op_no, index in enumerate(order):
            root = tracer.begin_op(op_no)
            ms, out, err = run_op(workload, index)
            tracer.close(root)
            ops.append([index, ms, out, err])
    finally:
        restore()
    wall = time.perf_counter() - start
    table = tracer.table()
    table.save(spans_path)
    return ops, wall, table


def versions() -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "stratavar": sv.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    if not Path(sv.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"stratavar imported from {sv.__file__}, not from {ROOT / 'src'}")
    manifest = json.loads((args.workdir / "manifest.json").read_text())
    workload = WORKLOADS[args.workload](manifest)
    _, _, err = run_op(workload, workload.warmup)
    if err is not None:
        raise SystemExit(f"warm-up op failed: {err}")
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    result = {"versions": versions()}
    if args.mode == "run":
        ops, wall = closed_loop(workload, args.seconds)
        result.update(
            ops=ops,
            wall_s=wall,
            rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
    else:
        ops, untraced_wall = closed_loop(workload, args.seconds / 2)
        traced_ops, traced_wall, table = traced_loop(workload, [op[0] for op in ops], args.spans)
        result.update(
            ops=ops + traced_ops,
            wall_s=untraced_wall,
            layer=spans.layer_metrics(table, traced_wall, untraced_wall),
        )
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
