"""Print one sha256 per command of a fixed set of seeded stratavar runs.

    python .github/seeded_outputs.py [ROOT]

ROOT (default: the current directory) is a checkout of this repository;
its ``src/stratavar`` is the program run and its ``perfbench/generate.py``
writes the benchmark's 52 trial files of seed 77 into a temporary
directory. ``stratavar.cli.main`` then runs in process on each file
(``analyze``, ``analyze --q-spec x1,x2 --poly 2`` and ``hettest --q-spec
x1,x2 --poly 2`` with the file's ``--max-draws`` and ``--seed``) and on
the four simulation studies at small ``--reps``. The same ``hettest`` on
the first two sampled and the first two enumerated files, and one
``power`` study, run again with ``--threads 2``, whose output must not
depend on the worker count. Last, ``analyze`` runs on each of a set of
small faulty files (``FAULTY_ROWS``), whose one-line errors name the file
line of the first fault. Each output line is the
sha256 of one command's exit code, stdout, stderr and written files,
followed by the command. Two checkouts that print the same lines gave
byte-identical outputs.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

SEED = 77
Q_SPEC = ["--q-spec", "x1,x2", "--poly", "2"]
STUDIES = [
    ["simulate", "table1", "--reps", "300", "--seed", "5", "--raw"],
    ["simulate", "power", "--reps", "30", "--seed", "5", "--a-grid", "1.0,1.5", "--raw"],
    # 62,208 assignments: every replicate runs the exact scalar test
    ["simulate", "power", "--reps", "4", "--seed", "2", "--blocks", "13", "--max-draws", "70000",
     "--a-grid", "1.2", "--raw"],
    ["simulate", "pate-demo", "--reps", "300", "--seed", "5"],
    ["simulate", "pairs-quartets"],
    ["simulate", "power", "--reps", "30", "--seed", "5", "--a-grid", "1.0,1.5", "--threads", "2"],
]
THREADED_FILES = 2  # files of each kind, sampled and enumerated, that hettest runs on two workers
FAULTY_HEADER = "block_id,unit_id,treated,response,x1,x2\n"
VALID_ROWS = [
    f"{b},{u},{int(u == 1)},{b * 2 + u}.5,0.{u}{b},{b}" for b in range(1, 4) for u in (1, 2)
]
# file name: {0-based data row: its faulty text}, the other rows as in VALID_ROWS
FAULTY_ROWS = {
    "empty-id": {2: " ,1,1,4.5,0.12,2"},
    "duplicate-unit": {3: "2,1,0,5.5,0.22,2"},
    "treated": {1: "1,2,yes,3.5,0.21,1"},
    "response-text": {2: "2,1,1,abc,0.12,2"},
    "response-infinite": {4: "3,1,1,inf,0.13,3"},
    "covariate-text": {3: "2,2,0,5.5,0.22,two"},
    "covariate-nan": {3: "2,2,0,5.5, nan ,2"},
    "short-row": {2: "2,1,1"},
    "partial-responses": {4: "3,1,1,,0.13,3"},
    "first-row": {0: "1,1,2,2.5,0.11,1"},
    "last-row": {5: "3,2,0,7.5,0.23,"},
    "after-blank-lines": {0: "1,1,1,2.5,0.11,1\n\n", 4: "\n3,1,1,6.5,0.13,x"},
    "quoted-newline": {1: '1,"2\n",0,3.5,0.21,1', 3: "2,2,0,5.5,0.22,-inf"},
    "earliest-of-two": {2: "2,1,2,4.5,0.12,2", 4: ",1,1,6.5,0.13,3"},
    "treated-before-response": {3: "2,2,2,abc,x,2"},
    "response-before-covariate": {3: "2,2,0,abc,x,2"},
}


def _digest(main, argv: list[str], out_dir: Path) -> str:
    """sha256 of one in-process CLI call: exit code, stdout, stderr, then each file in out_dir."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    h = hashlib.sha256(f"{code}\n{out.getvalue()}\n{err.getvalue()}\n".encode())
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            h.update(f"{path.relative_to(out_dir)}\n".encode() + path.read_bytes())
    return h.hexdigest()


def main() -> int:
    root = Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    os.environ.pop("STRATAVAR_THREADS", None)
    import generate
    import stratavar.cli

    if root not in Path(stratavar.cli.__file__).resolve().parents:
        raise SystemExit(f"imported {stratavar.cli.__file__}, not the checkout at {root}")
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative paths, so the printed outputs do not name the directory
        commands, threaded = [], {True: [], False: []}
        for f in generate.trial_analysis(SEED, Path(".")):
            draws = ["--max-draws", str(f["max_draws"]), "--seed", str(f["hettest_seed"])]
            commands += [
                ["analyze", "--csv", f["csv"]],
                ["analyze", "--csv", f["csv"], *Q_SPEC],
                ["hettest", "--csv", f["csv"], *Q_SPEC, *draws],
            ]
            threaded[f["n_assignments"] <= f["max_draws"]].append(commands[-1] + ["--threads", "2"])
        threaded = [argv for runs in threaded.values() for argv in runs[:THREADED_FILES]]
        for name, rows in FAULTY_ROWS.items():
            Path(f"{name}.csv").write_text(
                FAULTY_HEADER + "".join(f"{rows.get(i, row)}\n" for i, row in enumerate(VALID_ROWS))
            )
        faulty = [["analyze", "--csv", f"{name}.csv"] for name in FAULTY_ROWS]
        for i, argv in enumerate(commands + STUDIES + threaded + faulty):
            out_dir = Path(f"out{i}")
            if argv[0] == "simulate":
                argv = [*argv, "--out-dir", str(out_dir)]
            out_dir.mkdir()
            print(f"{_digest(stratavar.cli.main, argv, out_dir)}  {' '.join(argv)}", flush=True)
        os.chdir(root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
