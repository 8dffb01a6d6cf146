"""Differential test of the batched study chunks against one-replicate loops.

``reference_table1_rows`` and ``reference_power_pvalues`` are the plain
reading of the two studies, over the replicates of one plain-numpy draw,
``reference_replicates``. Chunk c of ``REP_CHUNK`` replicates draws from
the stream of ``SeedSequence([seed, c])`` (power: ``[seed, a_index, c]``),
and each sub-batch of ``simulate._sub_batches`` draws its replicates' x,
unit noise, assignment keys and, for power, replay seeds as arrays, in the
documented order. Every replicate then runs the public scalar path on its
own: its world, ``block_effects``, the basis build, the estimators and the
permutation test. The library computes a sub-batch as arrays and sends a
replicate with a flagged basis or a non-finite response down the scalar
path. Table-1 raw rows must agree to 1e-12 relative, power p-values
exactly, and a failing replicate must raise the same exception with the
same message.
"""
from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest

from stratavar import (
    Assignment,
    BlockDesign,
    FriedmanConfig,
    PotentialWorld,
    QSpec,
    TooManyColumns,
    block_effects,
    block_weights,
    build_q1,
    build_q2,
    correct_transforms,
    estimate_ate,
    friedman_function,
    friedman_sizes,
    observed_responses,
    permutation_test,
    resolve_qspec,
    run_power_curve,
    run_table1,
    true_ate_variance,
)
from stratavar.errors import BadQPair, InputError, NonFiniteResponse, StratavarError
from stratavar.projection import q2_stack
from stratavar.simulate import REP_CHUNK, _sub_batches


def reference_projection_variances(tau: np.ndarray, w: np.ndarray, q) -> list[float]:
    """Unclamped (s1, s2, s3) through the basis's own residual and psi diagonals."""
    b2 = tau.shape[0] ** 2
    scaled = q.residual(w * (tau / np.sqrt(1.0 - q.leverages)))
    resid_sq = q.residual(w * tau) ** 2
    return [
        float(scaled @ scaled) / b2,
        float(np.sum(resid_sq * q.psi)) / b2,
        float(np.sum(resid_sq * q.psi_tilde)) / b2,
    ]


def reference_replicates(
    config: FriedmanConfig, design: BlockDesign, reps: int, *stream, replay_seeds=False
):
    """(x, eps, z, replay seed) of every replicate, drawn chunk by chunk.

    Chunk c draws from ``SeedSequence([*stream, c])``; its sub-batches are
    those of the library, sized by the cells of one replicate's bases. A
    sub-batch of R replicates draws x as (R, B, K), eps as (R, N), one
    (R, G, n) key array per (size, treated count) group, whose block treats
    its units with the smallest keys, and, with ``replay_seeds`` (power),
    R replay seeds.
    """
    cells = design.n_blocks * (config.n_covariates + build_q1(design).rank)
    for c, chunk_start in enumerate(range(0, reps, REP_CHUNK)):
        rng = np.random.default_rng(np.random.SeedSequence([*stream, c]))
        for _, size in _sub_batches(chunk_start, min(REP_CHUNK, reps - chunk_start), cells):
            xs = rng.random((size, design.n_blocks, config.n_covariates))
            epss = rng.standard_normal((size, design.n_units))
            keys = [rng.random((size, idx.shape[0], n)) for n, _, idx, _ in design.size_groups]
            seeds = rng.integers(0, 2**62, size=size) if replay_seeds else [None] * size
            for j in range(size):
                z = np.zeros(design.n_units, dtype=np.int64)
                for (n, kt, _, units), key in zip(design.size_groups, keys):
                    z[np.take_along_axis(units, np.argsort(key[j], axis=1)[:, :kt], axis=1)] = 1
                yield xs[j], epss[j], z, seeds[j]


def reference_world(design: BlockDesign, a: float, b: float, x, eps, z):
    """The schedule r1 = a f + b eps, r0 = f + eps and its data under flags z."""
    f = np.repeat(friedman_function(x), design.sizes)
    splits = np.cumsum(design.sizes)[:-1]
    r1, r0 = np.split(a * f + b * eps, splits), np.split(f + eps, splits)
    world = PotentialWorld(design, r1, r0)
    return world, observed_responses(world, Assignment(np.split(z, splits)))


def reference_table1_rows(config: FriedmanConfig, reps: int, seed: int) -> np.ndarray:
    """One row of ``TABLE1_RAW_COLUMNS`` per replicate, one replicate at a time."""
    design = BlockDesign.from_sizes(*friedman_sizes(config))
    w = block_weights(design)
    rows = []
    for x, eps, z, _ in reference_replicates(config, design, reps, seed):
        world, data = reference_world(design, config.a, config.b, x, eps, z)
        effects = block_effects(design, data)
        qs = (
            build_q1(design),
            build_q2(design, xbar=correct_transforms(x), poly_degree=1),
            build_q2(design, xbar=x, poly_degree=1),
        )
        cells = [v for q in qs for v in reference_projection_variances(effects.tau_hat, w, q)]
        rows.append(cells + [true_ate_variance(world), estimate_ate(effects, w)])
    return np.array(rows)


def reference_power_pvalues(
    config: FriedmanConfig, a_grid, reps: int, max_draws: int, seed: int, qspecs
) -> list[list[float]]:
    """p-values per (a, q-spec) row, each replicate through its own world and test."""
    design = BlockDesign.from_sizes(*friedman_sizes(config))
    out = []
    for a_index, a in enumerate(a_grid):
        pvals = {name: [] for name in qspecs}
        draws = reference_replicates(config, design, reps, seed, a_index, replay_seeds=True)
        for x, eps, z, perm_seed in draws:
            _, data = reference_world(design, float(a), config.b, x, eps, z)
            for name in qspecs:
                q2 = resolve_qspec(QSpec(kind=name), design, x)
                res = permutation_test(design, data, q2, max_draws=max_draws, seed=int(perm_seed))
                pvals[name].append(res.p_value)
        out.extend(pvals[name] for name in qspecs)
    return out


def _outcome(fn):
    """(exception class and message) or (result, warning messages) of one call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn()
        except StratavarError as exc:
            return type(exc), str(exc)
    return result, [str(c.message) for c in caught]


TABLE1_CASES = [
    (0, FriedmanConfig(n_blocks=100, a=2.0, b=2.0), 251, 1),
    (5, FriedmanConfig(n_blocks=12, a=2.0, b=2.0, triplet_fraction=0.0, n_covariates=5), 60, 1),
    (9111, FriedmanConfig(n_blocks=30, a=1.0, b=1.0), 251, 2),
    (5, FriedmanConfig(n_blocks=57, a=1.5, b=0.5, triplet_fraction=0.3, n_covariates=5), 40, 1),
    (0, FriedmanConfig(n_blocks=14, a=2.0, b=2.0, n_covariates=10), 30, 1),
]


@pytest.mark.parametrize("seed, config, reps, threads", TABLE1_CASES)
def test_table1_rows_match_the_one_replicate_loop(seed, config, reps, threads):
    got = run_table1(config=config, reps=reps, seed=seed, threads=threads, collect_raw=True).raw
    want = reference_table1_rows(config, reps, seed)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


POWER_CASES = [
    (0, FriedmanConfig(n_blocks=20, a=1.0, b=1.0), (1.0, 1.5), 30, 199, 1),
    (5, FriedmanConfig(n_blocks=20, a=1.0, b=1.0), (1.0, 1.3), 251, 49, 2),
    (9111, FriedmanConfig(n_blocks=12, triplet_fraction=0.0, n_covariates=5), (1.2,), 25, 999, 1),
    (9111, FriedmanConfig(n_blocks=100, a=1.0, b=1.0, n_covariates=10), (1.1,), 8, 99, 1),
    # 2^12 = 4096 assignments, enumerated exactly by every replicate's test
    (5, FriedmanConfig(n_blocks=12, triplet_fraction=0.0, n_covariates=5), (1.4,), 6, 5000, 1),
]


@pytest.mark.parametrize("seed, config, a_grid, reps, max_draws, threads", POWER_CASES)
def test_power_pvalues_match_the_one_replicate_loop(seed, config, a_grid, reps, max_draws, threads):
    qspecs = ("correct", "incorrect")
    rows = run_power_curve(
        config=config, a_grid=a_grid, reps=reps, max_draws=max_draws, seed=seed,
        threads=threads, qspecs=qspecs, collect_raw=True,
    )
    want = reference_power_pvalues(config, a_grid, reps, max_draws, seed, qspecs)
    assert [row["p_values"] for row in rows] == want


def test_failing_basis_raises_as_in_the_one_replicate_loop():
    # q1 rank 2 plus ten raw covariates fill all twelve blocks
    config = FriedmanConfig(n_blocks=12)
    want = _outcome(lambda: reference_table1_rows(config, 3, 0))
    assert want[0] is TooManyColumns
    assert _outcome(lambda: run_table1(config=config, reps=3, seed=0)) == want
    for qspecs in (("correct", "incorrect"), ("incorrect", "correct"), ("correct", "none")):
        want = _outcome(lambda: reference_power_pvalues(config, (1.0,), 3, 49, 0, qspecs))
        assert want[0] in (TooManyColumns, BadQPair)
        got = _outcome(
            lambda: run_power_curve(config=config, a_grid=(1.0,), reps=3, max_draws=49, qspecs=qspecs)
        )
        assert got == want


@pytest.mark.parametrize(
    "config, a, max_draws",
    [
        (FriedmanConfig(n_blocks=20), 1.0, 0),
        (FriedmanConfig(n_blocks=20), 1.0, -1),
        (FriedmanConfig(n_blocks=20), float("nan"), 49),
        (FriedmanConfig(n_blocks=20), float("inf"), 49),
        (FriedmanConfig(n_blocks=20), 1e308, 49),  # a f overflows
        (FriedmanConfig(n_blocks=20, b=float("nan")), 1.0, 49),
        # max_draws None: a table-1 world with signal scale a
        (FriedmanConfig(n_blocks=20), float("nan"), None),
        (FriedmanConfig(n_blocks=20), 1e308, None),
        (FriedmanConfig(n_blocks=20, b=float("inf")), 2.0, None),
        (FriedmanConfig(n_blocks=12, b=float("nan")), 2.0, None),  # responses fail before the basis
    ],
)
def test_bad_power_inputs_raise_as_in_the_one_replicate_loop(config, a, max_draws):
    qspecs = ("correct", "incorrect")
    with np.errstate(all="ignore"):
        if max_draws is None:
            config = dataclasses.replace(config, a=a)
            want = _outcome(lambda: reference_table1_rows(config, 3, 0))
            got = _outcome(lambda: run_table1(config=config, reps=3, seed=0))
        else:
            want = _outcome(lambda: reference_power_pvalues(config, (a,), 3, max_draws, 0, qspecs))
            got = _outcome(
                lambda: run_power_curve(
                    config=config, a_grid=(a,), reps=3, max_draws=max_draws, qspecs=qspecs
                )
            )
    assert want[0] in (InputError, NonFiniteResponse)
    assert got == want


def _covariate_stacks(design: BlockDesign, rng: np.random.Generator) -> np.ndarray:
    """(R, B, 4) block-level covariates, most rows with one defect."""
    b = design.n_blocks
    rows = []
    for case in range(40):
        x = rng.random((b, 4))
        kind = case % 10
        if kind == 1:
            x[:, 2] = 3.0  # constant: vanishes after weighting and centering
        elif kind == 2:
            x[:, 3] = x[:, 0]  # exact duplicate
        elif kind == 3:
            x[:, 3] = -2.5 * x[:, 1]  # scaled duplicate
        elif kind == 4:
            x[:, 3] = x[:, 0] + x[:, 1] + 1e-12 * rng.standard_normal(b)  # nearly collinear
        elif kind == 5:
            # collinear, yet clear of the tolerance
            x[:, 3] = x[:, 0] - x[:, 2] + 1e-6 * rng.standard_normal(b)
        elif kind == 6:
            x[:, 1] = 0.0
            x[case % b, 1] = 1.0  # a one-block spike: leverage one
        elif kind == 7:
            x += 1e7  # offsets far above the spread: rounding along q1
        elif kind == 8:
            x[:] = 1.0  # every column vanishes
        rows.append(x)
    return np.array(rows)


@pytest.mark.parametrize("sizes_seed", [1, 2, 3])
def test_stacked_basis_rows_agree_with_build_q2(sizes_seed):
    rng = np.random.default_rng(sizes_seed)
    b = 14 + sizes_seed
    sizes = rng.integers(2, 5, size=b) if sizes_seed != 3 else np.full(b, 2)
    design = BlockDesign.from_sizes(sizes, np.ones(b, dtype=int))
    xbars = _covariate_stacks(design, rng)
    q1 = build_q1(design)
    stack = q2_stack(q1, block_weights(design)[:, None] * xbars)
    kinds_ok, kinds_flagged = set(), set()
    for j, xbar in enumerate(xbars):
        if not stack.ok[j]:  # goes through build_q2 itself, drops, notes, warnings and all
            kinds_flagged.add(j % 10)
            continue
        kinds_ok.add(j % 10)
        q, caught = _outcome(lambda: build_q2(design, xbar=xbar, poly_degree=1))
        assert caught == [] and q.dropped_columns == () and q.notes == ()
        assert np.array_equal(q.basis, np.column_stack([q1.basis, stack.qm[j]]))
        assert np.array_equal(q.leverages, stack.leverages[j])
    assert 0 in kinds_ok and kinds_flagged >= {1, 2, 3, 4, 6, 7, 8}
