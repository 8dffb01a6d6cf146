"""Differential test of the batched study chunks against one-replicate loops.

``reference_table1_rows`` and ``reference_power_pvalues`` are the plain
reading of the two studies, over the replicates of one plain-numpy draw,
``reference_replicates``. Chunk c of ``REP_CHUNK`` replicates draws from
the stream of ``SeedSequence([seed, c])`` (power: ``[seed, a_index, c]``),
and each sub-batch of ``simulate._sub_batches`` draws its replicates' x,
unit noise and assignment keys as arrays, in the documented order; power
then draws the replays of every replicate, piece by piece, and last one
seed per replicate. Every replicate then runs the public scalar path on
its own: its world, ``block_effects``, the basis build and the estimators.
A power replicate counts the replays whose F, by the per-assignment
formula on effects decoded from its option tables, reaches the observed
one; a replicate with a flagged stacked basis or a non-finite response,
and every replicate of an enumerable space, runs ``permutation_test``
with its seed instead. The library computes a sub-batch as arrays.
Table-1 raw rows must agree to 1e-12 relative, power p-values exactly,
and a failing replicate must raise the same exception with the same
message.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
import warnings
from unittest import mock

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
    n_assignments,
    observed_responses,
    permutation_test,
    resolve_qspec,
    run_power_curve,
    run_table1,
    true_ate_variance,
)
from stratavar import hettest
from stratavar.errors import BadQPair, InputError, NonFiniteResponse, StratavarError
from stratavar.projection import _psi_weights, q2_stack
from stratavar.estimators import _option_groups, _projection_variances
from stratavar.simulate import (
    REP_CHUNK,
    _draw_replicates,
    _qspec_xbar,
    _sim_context,
    _sub_batches,
)


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
    config: FriedmanConfig, design: BlockDesign, reps: int, *stream, replays=None
):
    """(x, eps, z, replays, seed) of every replicate, drawn chunk by chunk.

    Chunk c draws from ``SeedSequence([*stream, c])``; its sub-batches are
    those of the library, sized by the cells of one replicate's bases. A
    sub-batch of R replicates draws x as (R, B, K), eps as (R, N) and one
    (R, G, n) key array per (size, treated count) group, whose block treats
    its units with the smallest keys. With ``replays(rng, R)`` (power), it
    then draws each replicate's replays by that function and last R seeds.
    """
    cells = design.n_blocks * (config.n_covariates + build_q1(design).rank)
    for c, chunk_start in enumerate(range(0, reps, REP_CHUNK)):
        rng = np.random.default_rng(np.random.SeedSequence([*stream, c]))
        for _, size in _sub_batches(chunk_start, min(REP_CHUNK, reps - chunk_start), cells):
            xs = rng.random((size, design.n_blocks, config.n_covariates))
            epss = rng.standard_normal((size, design.n_units))
            keys = [rng.random((size, idx.shape[0], n)) for n, _, idx, _ in design.size_groups]
            drawn = replays(rng, size) if replays else [None] * size
            seeds = rng.integers(0, 2**62, size=size) if replays else [None] * size
            for j in range(size):
                z = np.zeros(design.n_units, dtype=np.int64)
                for (n, kt, _, units), key in zip(design.size_groups, keys):
                    z[np.take_along_axis(units, np.argsort(key[j], axis=1)[:, :kt], axis=1)] = 1
                yield xs[j], epss[j], z, drawn[j], seeds[j]


def reference_replays(design: BlockDesign, max_draws: int, rng, size: int, width: int) -> list[list]:
    """Each replicate's replays: a list of (draws, B) option indices, one per piece.

    The blocks run in (size, treated count) group order. A group of G blocks
    with C options each splits into super-blocks of k blocks, the most with
    C**k <= ``hettest.SUPER_ROWS`` (at most G), then one of the G % k left
    over. The pieces are those of ``hettest._replay_pieces`` for cells the
    larger of ``width`` (the L + 1 sums of a replay) and the number of
    super-blocks. Each piece draws, group by group and kind by kind, an
    (S, R, draws) uniform ``uint16`` index into the mixed radix of its
    super-blocks' option indices, the first block the most significant digit.
    """
    runs, col = [], 0
    for n, kt, idx, _ in design.size_groups:
        c, g, per = math.comb(n, kt), idx.shape[0], 1
        while per < g and c ** (per + 1) <= hettest.SUPER_ROWS:
            per += 1
        for lo, hi, kb in ((0, g - g % per, per), (g - g % per, g, g % per)):
            if hi > lo:
                runs.append((col + lo, (hi - lo) // kb, kb, c))
        col += g
    cells = max(width, sum(n_sb for _, n_sb, _, _ in runs))
    out = [[] for _ in range(size)]
    for j0, r, _, m in hettest._replay_pieces(size, cells, max_draws):
        digits = np.empty((r, m, design.n_blocks), dtype=np.int64)
        for first, n_sb, kb, c in runs:
            index = rng.integers(0, c**kb, size=(n_sb, r, m), dtype=np.uint16).astype(np.int64)
            for i in reversed(range(kb)):
                index, d = np.divmod(index, c)
                digits[:, :, first + i : first + n_sb * kb : kb] = d.transpose(1, 2, 0)
        for j in range(r):
            out[j0 + j].append(digits[j])
    return out


def reference_options(design: BlockDesign, r: np.ndarray) -> list[np.ndarray]:
    """Each block's effect under every treated subset, lexicographic, in group order."""
    out = []
    for n, kt, idx, units in design.size_groups:
        for row in units:
            y = r[row]
            subsets = [list(s) for s in itertools.combinations(range(n), kt)]
            effects = [y[s].sum() / kt - (y.sum() - y[s].sum()) / (n - kt) for s in subsets]
            out.append(np.array(effects))
    return out


def reference_hits(options: list, replays: list, w, basis, q1_rank: int, thresh: float) -> int:
    """Replays whose F, by ``_f_values`` on effects decoded from ``options``, reaches ``thresh``.

    ``w`` and the basis have their rows in group order, as the options do;
    each piece of ``replays`` is scored as one batch.
    """
    hits = 0
    for digits in replays:
        t_mat = np.column_stack([opts[d] for opts, d in zip(options, digits.T)])
        hits += int(np.sum(hettest._f_values(t_mat, w, basis, q1_rank) >= thresh))
    return hits


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
    for x, eps, z, _, _ in reference_replicates(config, design, reps, seed):
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
    hettest._check_max_draws(max_draws)  # as permutation_test does, before any replicate
    design = BlockDesign.from_sizes(*friedman_sizes(config))
    w, q1 = block_weights(design), build_q1(design)
    order = np.concatenate([idx for _, _, idx, _ in design.size_groups])
    sampled = n_assignments(design) > max_draws

    # a replay's L + 1 sums: q1, each q-spec's covariate columns, |v|^2
    width = 1 + q1.rank + sum({"correct": 4, "incorrect": config.n_covariates}.get(n, 0) for n in qspecs)

    def draw(rng, size):  # an enumerable space draws no replays
        return reference_replays(design, max_draws, rng, size, width) if sampled else [None] * size

    out = []
    for a_index, a in enumerate(a_grid):
        pvals = {name: [] for name in qspecs}
        draws = reference_replicates(config, design, reps, seed, a_index, replays=draw)
        for x, eps, z, replays, perm_seed in draws:
            _, data = reference_world(design, float(a), config.b, x, eps, z)
            r = np.concatenate(data.responses)
            for name in qspecs:
                xbar = _qspec_xbar(QSpec(kind=name), x)
                flagged = xbar is None or not q2_stack(q1, (w[:, None] * xbar)[None]).ok[0]
                q2 = resolve_qspec(QSpec(kind=name), design, x)
                if flagged or not sampled or not np.isfinite(r).all():
                    res = permutation_test(design, data, q2, max_draws, seed=int(perm_seed))
                    pvals[name].append(res.p_value)
                    continue
                tau = block_effects(design, data).tau_hat
                t = hettest._f_values(tau[None], w, q2.basis, q2.q1_rank)[0]
                thresh = t - 1e-12 * abs(t) if np.isfinite(t) else np.inf
                options = reference_options(design, r)
                basis = q2.basis[order]  # replays run in group order
                hits = reference_hits(options, replays, w[order], basis, q2.q1_rank, thresh)
                pvals[name].append((1 + hits) / (1 + max_draws))
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
    # q1 rank 2 plus ten raw covariates fill all twelve blocks: the loop's
    # first replicate raises, and the studies refuse the block count up front
    config = FriedmanConfig(n_blocks=12)
    assert _outcome(lambda: reference_table1_rows(config, 3, 0))[0] is TooManyColumns
    refused = (
        InputError,
        "a study of 12 blocks leaves no residual degree of freedom: q1 rank 2 plus 10 "
        "covariate columns",
    )
    assert _outcome(lambda: run_table1(config=config, reps=3, seed=0)) == refused
    for qspecs in (("correct", "incorrect"), ("incorrect", "correct"), ("correct", "none")):
        want = _outcome(lambda: reference_power_pvalues(config, (1.0,), 3, 49, 0, qspecs))
        assert want[0] in (TooManyColumns, BadQPair)
        got = _outcome(
            lambda: run_power_curve(config=config, a_grid=(1.0,), reps=3, max_draws=49, qspecs=qspecs)
        )
        # four transforms fit; a "none" spec has no covariate block to test
        assert got == (want if "incorrect" not in qspecs else refused)


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
        # responses fail before the bases (twelve blocks would not hold ten raw covariates)
        (FriedmanConfig(n_blocks=12, b=float("nan"), n_covariates=5), 2.0, None),
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
        assert np.array_equal(q.basis, stack.basis[j])
        assert np.array_equal(q.leverages, stack.leverages[j])
    assert 0 in kinds_ok and kinds_flagged >= {1, 2, 3, 4, 6, 7, 8}


@pytest.mark.parametrize("sizes", [[2] * 16, [2] * 8 + [3] * 5 + [4] * 3])
def test_stacked_kernels_equal_the_scalar_ones_bit_for_bit(sizes):
    # table 1 and power score the ok rows of a q2_stack stack as one batch;
    # a replicate on its own basis from build_q2 must get the same bits
    rng = np.random.default_rng(len(sizes) + sizes[-1])
    design = BlockDesign.from_sizes(sizes, np.ones(len(sizes), dtype=int))
    w, q1 = block_weights(design), build_q1(design)
    assert q1.rank == (1 if len(set(sizes)) == 1 else 2)  # equal sizes: no weights column
    xbars = np.concatenate([_covariate_stacks(design, rng), rng.random((40, len(sizes), 4))])
    tau = rng.standard_normal(xbars.shape[:2])
    stack = q2_stack(q1, w[:, None] * xbars)
    ok = stack.ok
    assert np.count_nonzero(ok) >= 40
    psi = _psi_weights(1.0 - stack.leverages[ok])
    cells = _projection_variances(tau[ok], w, stack.basis[ok], *psi)
    f = hettest._f_values(tau[:, None], w, stack.basis, q1.rank)[:, 0]
    for j, cell in zip(np.flatnonzero(ok), cells):
        q = build_q2(design, xbar=xbars[j])
        assert np.array_equal(cell, _projection_variances(tau[j], w, q.basis, q.psi, q.psi_tilde))
        assert f[j] == hettest.f_statistic(tau[j], w, q)


def _replay_batch(config: FriedmanConfig, reps: int, seed: int):
    """A sub-batch of study replicates, as ``_power_chunk`` hands it to ``_batch_hits``."""
    ctx = _sim_context(config)
    design, w, q1 = ctx["design"], ctx["w"], ctx["q1"]
    x, _, _, _, _, r, tau = _draw_replicates(ctx, np.random.default_rng(seed), reps, 1.0)
    order = design._group_order
    bases, thresh = [], []
    for name in ("correct", "incorrect"):
        stack = q2_stack(q1, w[:, None] * _qspec_xbar(QSpec(kind=name), x))
        assert stack.ok.all()
        t = hettest._f_values(tau[:, None], w, stack.basis, q1.rank)
        bases.append(stack.basis[:, order])
        thresh.append(hettest._replay_threshold(t[:, 0]))
    groups = _option_groups(design, r, hettest.OPTION_CELLS)
    return design, r, w[order], q1.rank, groups, bases, np.array(thresh).T


def _reference_batch_hits(design, r, w, q1_rank, bases, thresh, max_draws, seed) -> np.ndarray:
    """(R, specs) hits of the same draws, each replicate scored alone by ``_f_values``."""
    width = 1 + q1_rank + sum(b.shape[-1] - q1_rank for b in bases)
    replays = reference_replays(design, max_draws, np.random.default_rng(seed), r.shape[0], width)
    hits = np.zeros(thresh.shape, dtype=np.int64)
    for j, pieces in enumerate(replays):
        options = reference_options(design, r[j])
        for i, basis in enumerate(bases):
            hits[j, i] = reference_hits(options, pieces, w, basis[j], q1_rank, thresh[j, i])
    return hits


@pytest.mark.parametrize(
    "config, reps, max_draws",
    [
        (FriedmanConfig(n_blocks=20), 11, 999),
        (FriedmanConfig(n_blocks=12, triplet_fraction=0.0, n_covariates=5), 9, 301),
        (FriedmanConfig(n_blocks=100), 3, 57),
        (FriedmanConfig(n_blocks=20), 5, 2500),
    ],
)
def test_batched_hits_equal_the_formula_on_the_same_draws(config, reps, max_draws):
    design, r, w, q1_rank, groups, bases, thresh = _replay_batch(config, reps, seed=reps)
    live = np.ones(thresh.shape, dtype=bool)
    live[1, 0] = False  # a pair that is not scored counts nothing
    rng = np.random.default_rng(7)
    got = hettest._batch_hits(rng, groups, w, q1_rank, bases, thresh, live, max_draws)
    want = _reference_batch_hits(design, r, w, q1_rank, bases, thresh, max_draws, seed=7)
    assert got[1, 0] == 0
    want[1, 0] = 0
    assert np.array_equal(got, want)
    assert 0 < want.sum() < want.size * max_draws


@pytest.mark.parametrize(
    "reps, n_blocks, max_draws",
    [(11, 20, 999), (5, 20, 2500), (9, 20, 100_000), (3, 100, 57), (1, 4, 1)],
)
def test_replay_pieces_cover_every_draw_once_within_the_cell_budget(reps, n_blocks, max_draws):
    seen = np.zeros((reps, max_draws), dtype=np.int8)
    pieces = hettest._replay_pieces(reps, n_blocks, max_draws)
    for j0, r, d0, m in pieces:
        seen[j0 : j0 + r, d0 : d0 + m] += 1
        # a piece's (replicates, draws, B) effects: at most one draw per replicate over
        assert r * m * n_blocks <= hettest.PIECE_CELLS + r * n_blocks
    assert (seen == 1).all()
    if max_draws >= 999:  # a run takes its draws in several pieces
        assert len(pieces) > math.ceil(reps / hettest.REPLAY_REPS)


@pytest.mark.parametrize("ulps", [0, 1, -1])
def test_unclear_replays_are_scored_again_by_the_formula(ulps):
    # a threshold at, or one ulp beside, an attained replay F: the projection
    # sums cannot tell which side that replay is on, so its piece is decoded
    # and scored again
    design, r, w, q1_rank, groups, bases, thresh = _replay_batch(FriedmanConfig(n_blocks=20), 4, 3)
    max_draws = 999
    width = 1 + q1_rank + sum(b.shape[-1] - q1_rank for b in bases)
    replays = reference_replays(design, max_draws, np.random.default_rng(2), 4, width)
    basis = bases[1][2]
    t_mat = np.column_stack(
        [opts[d] for opts, d in zip(reference_options(design, r[2]), replays[2][0].T)]
    )
    attained = np.median(hettest._f_values(t_mat, w, basis, q1_rank))
    thresh[2, 1] = attained + ulps * np.spacing(attained)
    live = np.ones(thresh.shape, dtype=bool)
    with mock.patch.object(hettest, "_f_values", wraps=hettest._f_values) as rescored:
        rng = np.random.default_rng(2)
        got = hettest._batch_hits(rng, groups, w, q1_rank, bases, thresh, live, max_draws)
    assert rescored.call_count >= 1
    want = _reference_batch_hits(design, r, w, q1_rank, bases, thresh, max_draws, seed=2)
    assert np.array_equal(got, want)


def test_non_finite_replicates_do_not_disturb_the_others():
    design, r, w, q1_rank, groups, bases, thresh = _replay_batch(FriedmanConfig(n_blocks=20), 6, 4)
    live = np.ones(thresh.shape, dtype=bool)
    args = (w, q1_rank, bases, thresh)
    want = hettest._batch_hits(np.random.default_rng(5), groups, *args, live, 199)
    r = r.copy()
    r[3, 0], r[4, 1] = np.nan, np.inf  # in the same run as live replicates
    live[3:5] = False
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(invalid="ignore"):  # the option tables themselves hold inf - inf
            groups = _option_groups(design, r, hettest.OPTION_CELLS)
        got = hettest._batch_hits(np.random.default_rng(5), groups, *args, live, 199)
    assert np.array_equal(got[live.all(axis=1)], want[live.all(axis=1)])
    assert not got[3:5].any()
