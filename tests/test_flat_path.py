"""The analyst path, the oracle and the study worlds run on packed unit arrays alone.

``analyze`` and ``hettest`` (exact and Monte Carlo) must read a CSV into
flat arrays and work on them without building a ``Block``, an
``Assignment`` from per-block tuples, or any ``np.split``. The first test
runs the command line on a file shaped like the trial-analysis
benchmark's (blocks of 2-4 units, two covariates, ``--q-spec x1,x2 --poly
2``) with those three patched to raise, and checks that the output is the
same as without the patches.

The second test does the same for the oracle and the studies:
``brute_force_expectations`` over a small world, ``draw_world`` followed by
``observed_responses`` and ``block_effects``, and ``friedman_world`` must
build no ``Block``, and no ``Assignment`` or ``AssignmentAndOutcomes``
from per-block tuples, and must give the same bits as without the patches.
"""
from __future__ import annotations

import contextlib
import io
from unittest import mock

import numpy as np
import pytest

from stratavar import (
    Assignment,
    AssignmentAndOutcomes,
    Block,
    BlockDesign,
    CateModel,
    FriedmanConfig,
    block_effects,
    block_weights,
    brute_force_expectations,
    build_q1,
    draw_world,
    estimate_ate,
    friedman_world,
    observed_responses,
    sample_assignment,
    var_s1,
    var_s2,
)
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
        raise AssertionError(f"the packed path called {what}")

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


def _oracle_inputs() -> tuple[BlockDesign, CateModel]:
    """A small mixed design and a noise model over it, built through the per-block constructors."""
    rng = np.random.default_rng(31)
    layout = [(2, 1), (3, 1), (2, 1), (3, 2), (2, 1), (4, 2)]
    design = BlockDesign.from_sizes([n for n, _ in layout], [k for _, k in layout])
    f0 = tuple(rng.normal(size=n) for n, _ in layout)
    f1 = tuple(f + rng.normal(1.0, 0.5) for f in f0)
    cov = np.array([[1.0, 0.3], [0.3, 0.5]])
    return design, CateModel(design=design, f1=f1, f0=f0, noise_cov=cov)


def _oracle_and_study_bits(design: BlockDesign, model: CateModel) -> list[bytes]:
    w, q = block_weights(design), build_q1(design)
    world = draw_world(model, 5)
    statistics = {
        "delta": lambda data: estimate_ate(block_effects(design, data), w),
        "s1": lambda data: var_s1(block_effects(design, data), w, q),
        "s2": lambda data: var_s2(block_effects(design, data), w, q),
    }
    expected = brute_force_expectations(world, statistics)
    data = observed_responses(world, sample_assignment(design, 9))
    effects = block_effects(design, data)
    study = friedman_world(FriedmanConfig(n_blocks=12, a=1.5, b=2.0), 3)
    study_world = draw_world(study, 4)
    arrays = [
        np.array([expected[name] for name in statistics]),
        *world._arms,
        data.r,
        effects.tau_hat,
        effects.var_treated,
        study.design.covariates,
        *study._arms,
        study.noise_cov,
        *study_world._arms,
    ]
    return [a.tobytes() for a in arrays]


def test_oracle_and_study_worlds_build_no_per_block_objects():
    want = _oracle_and_study_bits(*_oracle_inputs())
    design, model = _oracle_inputs()
    with (
        mock.patch.object(Block, "__init__", _refuse("Block.__init__")),
        mock.patch.object(Assignment, "__init__", _refuse("Assignment.__init__")),
        mock.patch.object(
            AssignmentAndOutcomes, "__init__", _refuse("AssignmentAndOutcomes.__init__")
        ),
    ):
        got = _oracle_and_study_bits(design, model)
    assert got == want
