"""stratavar benchmark: one command for every workload and metric.

    python3 perfbench/run.py                                         # all workloads
    python3 perfbench/run.py --workload trial-analysis --seed 3
    python3 perfbench/run.py --workload simulation-studies --traced  # per-layer metrics

Run from the repository root. Each workload runs in processes of its own
(so set-up time and peak memory are not shared), with one closed-loop
client, ``threads=1`` and one BLAS thread, and ``STRATAVAR_THREADS``
cleared so no worker pool starts. Inputs are generated from ``--seed``
into ``.perfbench/`` and removed afterwards. Every op output is checked;
the last line printed is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics untraced, per-layer metrics
with ``--trace 1``). Metric names and units come from BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import checks
import generate
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("trial-analysis", "simulation-studies")
SETUP_SAMPLES = 3
# a workload's processes get this long plus twice --seconds: the margin covers
# input generation, the set-up workers and the pass that overruns --seconds,
# and the doubled run length covers a traced run replaying its untraced ops
DEADLINE_MARGIN_S = 80.0
TAIL_BEYOND = 10


def tail_latency(values: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile). With n samples that is the (n - 10)-th
    smallest, at percentile 100 (n - 10) / n; below eleven samples no
    percentile qualifies and the maximum is returned at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def deadline_s(seconds: float) -> float:
    return DEADLINE_MARGIN_S + 2.0 * seconds


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("STRATAVAR_THREADS", None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


class Runner:
    """Starts worker processes for one workload within a shared deadline."""

    def __init__(self, workload: str, workdir: Path, deadline: float):
        self.workload = workload
        self.workdir = workdir
        self.deadline = deadline

    def start(self, mode: str, seconds: float = 0.0) -> tuple[dict | None, float]:
        """Run one worker; returns its result (None for set-up only) and its set-up time."""
        out = self.workdir / f"result-{mode}.json"
        cmd = [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload", self.workload,
            "--workdir", str(self.workdir),
            "--mode", mode,
            "--seconds", str(seconds),
            "--out", str(out),
            "--spans", str(ROOT / ".perfbench" / f"spans-{self.workload}.npz"),
        ]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError("benchmark deadline passed")
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
        watchdog = threading.Timer(remaining, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            setup = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
            proc.stdout.close()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"{self.workload} worker ({mode}) failed with exit code {code}")
        return (json.loads(out.read_text()) if mode != "setup" else None), setup


def references_for(workload: str, entries: list, seed: int):
    if workload == "trial-analysis":
        return [reference.trial_reference(e, seed) for e in entries]
    return json.loads((HERE / "reference.json").read_text())


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    deadline = time.monotonic() + deadline_s(seconds)
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=ROOT / ".perfbench"))
    try:
        entries = generate.write_manifest(workload, seed, workdir)
        checker = checks.Checker(workload, references_for(workload, entries, seed))
        runner = Runner(workload, workdir, deadline)
        if trace:
            result, _ = runner.start("trace", seconds)
            values = result["layer"]
            names = spec["per_layer"]
        else:
            setups = [runner.start("setup")[1] for _ in range(SETUP_SAMPLES - 1)]
            result, setup = runner.start("run", seconds)
            setups.append(setup)
            values = end_to_end(result, statistics.median(setups))
            names = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = 0
    for index, _, out, err in result["ops"]:
        problems = [err] if err is not None else checker.check(index, out)
        if problems:
            failed += 1
            if failed <= 5:
                print(f"{workload}: op {index} failed: {'; '.join(problems[:3])}", file=sys.stderr)
    attempted = len(result["ops"])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    report(workload, seed, result, values, metrics, attempted, failed)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def end_to_end(result: dict, setup_s: float) -> dict:
    """The untraced metrics; throughput counts the ops that returned."""
    latencies = [op[1] for op in result["ops"]]
    tail, pct = tail_latency(latencies)
    completed = sum(op[3] is None for op in result["ops"])
    return {
        "setup_s": setup_s,
        "ops_per_s": completed / result["wall_s"],
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": tail,
        "op_tail_percentile": pct,
        "peak_rss_mib": result["rss_mib"],
    }


def report(workload, seed, result, values, metrics, attempted, failed) -> None:
    """Human-readable lines ahead of the JSON result line."""
    v = result["versions"]
    if "layer" in result:
        ops = f"{attempted} ops ({attempted // 2} untraced in {result['wall_s']:.1f} s, then the same ops traced)"
    else:
        ops = f"{attempted} ops in {result['wall_s']:.1f} s"
    print(
        f"{workload} seed {seed}: {ops}, {failed} failed; "
        f"python {v['python']} numpy {v['numpy']} scipy {v['scipy']} stratavar {v['stratavar']}, "
        f"BLAS threads {v['blas_threads']}, nproc {v['nproc']}"
    )
    for name, m in metrics.items():
        note = ""
        if name == "op_tail_ms":
            note = f"  (p{values['op_tail_percentile']:.1f} of {attempted} ops, {TAIL_BEYOND} beyond it)"
        if name == "setup_s":
            note = f"  (median of {SETUP_SAMPLES} fresh interpreters)"
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}{note}")
    print(f"  {'error_rate':<44} {failed / attempted:>14.6g} 1  ({failed} of {attempted} ops)")


def run_all(args) -> int:
    """Each workload in a process of its own, then one summary object."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: {workload} exited {proc.returncode}", file=sys.stderr)
            return 1
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1, help="same as --trace 1")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "stratavar" / "__init__.py").is_file():
        print(f"error: no stratavar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
