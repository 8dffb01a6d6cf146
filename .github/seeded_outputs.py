"""Print one sha256 per command of a fixed set of seeded stratavar runs.

    python .github/seeded_outputs.py [ROOT]

ROOT (default: the current directory) is a checkout of this repository;
its ``src/stratavar`` is the program run and its ``perfbench/generate.py``
writes the benchmark's 52 trial files of seed 77 into a temporary
directory. ``stratavar.cli.main`` then runs in process on each file
(``analyze``, ``analyze --q-spec x1,x2 --poly 2`` and ``hettest --q-spec
x1,x2 --poly 2`` with the file's ``--max-draws`` and ``--seed``) and on
the four simulation studies at small ``--reps``. Each output line is the
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
]


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
        commands = []
        for f in generate.trial_analysis(SEED, Path(".")):
            draws = ["--max-draws", str(f["max_draws"]), "--seed", str(f["hettest_seed"])]
            commands += [
                ["analyze", "--csv", f["csv"]],
                ["analyze", "--csv", f["csv"], *Q_SPEC],
                ["hettest", "--csv", f["csv"], *Q_SPEC, *draws],
            ]
        for i, argv in enumerate(commands + STUDIES):
            out_dir = Path(f"out{i}")
            if argv[0] == "simulate":
                argv = [*argv, "--out-dir", str(out_dir)]
            out_dir.mkdir()
            print(f"{_digest(stratavar.cli.main, argv, out_dir)}  {' '.join(argv)}", flush=True)
        os.chdir(root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
