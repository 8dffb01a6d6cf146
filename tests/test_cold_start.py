"""A fresh process runs every default path on numpy alone.

Importing scipy costs a fresh ``stratavar`` process over a second, more than
the analysis it then runs. This test imports the package and its command
line in a clean interpreter, runs ``analyze``, an exact and a Monte Carlo
``hettest``, ``run_table1`` and ``run_power_curve`` with one thread, and
checks that neither scipy nor the process pool of ``concurrent.futures``
was loaded on the way.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import stratavar

SRC = str(Path(stratavar.__file__).resolve().parents[1])

# six pairs and two triplets: unequal sizes put the weights column in q1,
# and the 2**6 * 3**2 = 576 assignments are enumerated at 1,000 draws and
# sampled at 99
CSV = "block_id,unit_id,treated,response,x1\n" + "".join(
    f"b{b},{j},{int(j == 0)},{(b * 7 + j * 3) % 5 + 0.25 * j},{b + j / 4}\n"
    for b, n in enumerate([2] * 6 + [3] * 2)
    for j in range(n)
)

SCRIPT = """
import contextlib, io, json, sys

import stratavar
import stratavar.cli
from stratavar import run_power_curve, run_table1

path = sys.argv[1]
runs = (
    ["analyze", "--csv", path, "--q-spec", "x1"],
    ["hettest", "--csv", path, "--q-spec", "x1", "--max-draws", "1000"],
    ["hettest", "--csv", path, "--q-spec", "x1", "--max-draws", "99", "--threads", "1"],
)
results = []
for argv in runs:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = stratavar.cli.main(argv)
    results.append((code, json.loads(out.getvalue()).get("exact")))
run_table1(reps=5, seed=3, threads=1)
run_power_curve(reps=3, seed=4, threads=1)
loaded = sorted(
    m for m in sys.modules
    if m == "scipy" or m.startswith("scipy.") or m == "concurrent.futures.process"
)
print(json.dumps({"results": results, "loaded": loaded}))
"""


def test_default_paths_load_neither_scipy_nor_the_process_pool(tmp_path):
    path = tmp_path / "experiment.csv"
    path.write_text(CSV)
    path_entries = [SRC, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path_entries)))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["results"] == [[0, None], [0, True], [0, False]]
    assert report["loaded"] == []
