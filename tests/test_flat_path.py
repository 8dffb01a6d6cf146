"""The analyst path runs on packed unit arrays alone.

``analyze`` and ``hettest`` (exact and Monte Carlo) must read a CSV into
flat arrays and work on them without building a ``Block``, an
``Assignment`` from per-block tuples, or any ``np.split``. The test runs
the command line on a file shaped like the trial-analysis benchmark's
(blocks of 2-4 units, two covariates, ``--q-spec x1,x2 --poly 2``) with
those three patched to raise, and checks that the output is the same as
without the patches.
"""
from __future__ import annotations

import contextlib
import io
from unittest import mock

import numpy as np
import pytest

from stratavar import Assignment, Block
from stratavar.cli import main


def _trial_csv(path, sizes, seed) -> None:
    rng = np.random.default_rng(seed)
    lines = ["block_id,unit_id,treated,response,x1,x2"]
    for i, n in enumerate(sizes):
        z = np.zeros(n, dtype=int)
        z[rng.permutation(n)[: rng.integers(1, n)]] = 1
        center = rng.random(2)
        x = center + 0.1 * rng.standard_normal((n, 2))
        r = rng.normal() + z * (1.0 + 0.3 * (center[0] - 0.5)) + rng.standard_normal(n)
        for j in range(n):
            cells = (float(r[j]), float(x[j, 0]), float(x[j, 1]))
            lines.append(f"b{i + 1:04d},{j + 1},{z[j]}," + ",".join(map(repr, cells)))
    path.write_text("\n".join(lines) + "\n")


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _refuse(what: str):
    def refuse(*args, **kwargs):
        raise AssertionError(f"the analyst path called {what}")

    return refuse


@pytest.mark.parametrize(
    "sizes, max_draws",
    [
        ([2] * 12 + [3] * 2, 50_000),  # 2**12 * 3**2 = 36,864 assignments, enumerated
        (np.random.default_rng(4).choice([2, 3, 4], size=120, p=[0.5, 0.3, 0.2]), 999),
    ],
    ids=["exact", "monte-carlo"],
)
def test_analyze_and_hettest_build_no_per_block_objects(tmp_path, sizes, max_draws):
    path = tmp_path / "trial.csv"
    _trial_csv(path, [int(n) for n in sizes], seed=len(sizes))
    common = ["--csv", str(path), "--q-spec", "x1,x2", "--poly", "2"]
    hettest = ["hettest", *common, "--max-draws", str(max_draws), "--seed", "7"]
    runs = [["analyze", *common], hettest]
    want = [_run(argv) for argv in runs]
    assert all(code == 0 for code, _, _ in want)
    with (
        mock.patch.object(Block, "__init__", _refuse("Block.__init__")),
        mock.patch.object(Assignment, "__init__", _refuse("Assignment.__init__")),
        mock.patch.object(np, "split", _refuse("np.split")),
    ):
        got = [_run(argv) for argv in runs]
    assert got == want
    assert ('"exact": true' in got[1][1]) == (max_draws == 50_000)
