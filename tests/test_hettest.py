"""Partial F statistic and the randomization test for effect heterogeneity."""
from __future__ import annotations

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from stratavar import (
    Assignment,
    AssignmentAndOutcomes,
    BadQPair,
    BlockDesign,
    ZeroDenominator,
    block_effects,
    block_weights,
    build_q1,
    build_q2,
    enumerate_assignments,
    f_statistic,
    permutation_test,
)
from stratavar import hettest
from stratavar.hettest import _option_groups


def _pairs_with_effects(taus, xbar):
    """Pairs (t, 0) with the first unit treated, so tau_hat equals taus."""
    taus = np.asarray(taus, dtype=float)
    design = BlockDesign.from_sizes([2] * taus.size, [1] * taus.size)
    data = AssignmentAndOutcomes(
        assignment=Assignment(z=tuple((1, 0) for _ in taus)),
        responses=tuple(np.array([t, 0.0]) for t in taus),
    )
    q2 = build_q2(design, xbar=np.asarray(xbar, dtype=float))
    return design, data, q2


def _lstsq_partial_f(v, q1_cols, q2_cols, k):
    rss = []
    for cols in (q1_cols, q2_cols):
        fit, *_ = np.linalg.lstsq(cols, v, rcond=None)
        resid = v - cols @ fit
        rss.append(float(resid @ resid))
    df_den = v.size - q2_cols.shape[1]
    return ((rss[0] - rss[1]) / rss[1]) * (df_den / k)


def test_f_statistic_hand_value():
    design, data, q2 = _pairs_with_effects([1.0, 2.0, 3.0, 5.0], [1.0, 2.0, 3.0, 4.0])
    w = block_weights(design)
    tau_hat = block_effects(design, data).tau_hat
    assert tau_hat == pytest.approx([1.0, 2.0, 3.0, 5.0])
    # Regressing (1, 2, 3, 5) on an intercept and x = (1, 2, 3, 4) explains
    # 8.45 of the 8.75 centered sum of squares, leaving 0.3 on 2 df.
    assert f_statistic(tau_hat, w, q2) == pytest.approx((8.45 / 0.3) * 2.0, rel=1e-12)
    result = permutation_test(design, data, q2)
    assert result.f_observed == pytest.approx(169.0 / 3.0, rel=1e-12)
    assert result.numerator_df == 1
    assert result.denominator_df == 2
    assert result.exact


def test_f_statistic_matches_least_squares_partial_f():
    rng = np.random.default_rng(42)
    for _ in range(20):
        b = int(rng.integers(6, 12))
        design = BlockDesign.from_sizes([2] * b, [1] * b)
        xbar = rng.normal(size=(b, 2))
        q1 = build_q1(design)
        q2 = build_q2(design, xbar=xbar)
        tau_hat = rng.normal(size=b)
        w = block_weights(design)
        v = w * tau_hat
        raw_q2 = np.column_stack([q1.values, w[:, None] * xbar])
        direct = _lstsq_partial_f(v, q1.values, raw_q2, k=q2.added_covariate_rank)
        assert f_statistic(tau_hat, w, q2) == pytest.approx(direct, rel=1e-9)


def test_f_statistic_matches_least_squares_on_unequal_blocks():
    rng = np.random.default_rng(43)
    design = BlockDesign.from_sizes([2, 2, 3, 3, 4, 4, 5, 5], [1, 1, 1, 2, 2, 2, 2, 3])
    xbar = rng.normal(size=design.n_blocks)
    q1 = build_q1(design)
    q2 = build_q2(design, xbar=xbar)
    w = block_weights(design)
    tau_hat = rng.normal(size=design.n_blocks)
    v = w * tau_hat
    raw_q2 = np.column_stack([q1.values, w * xbar])
    direct = _lstsq_partial_f(v, q1.values, raw_q2, k=1)
    assert f_statistic(tau_hat, w, q2) == pytest.approx(direct, rel=1e-9)


def test_f_statistic_invariant_to_constant_treated_shift():
    rng = np.random.default_rng(7)
    design = BlockDesign.from_sizes([2, 2, 3, 3, 4, 4], [1, 1, 1, 2, 2, 3])
    w = block_weights(design)
    q2 = build_q2(design, xbar=rng.normal(size=design.n_blocks))
    for c in (-11.0, 0.5, 40.0):
        z = tuple(
            tuple(rng.permutation([1] * blk.n_treated + [0] * blk.n_control))
            for blk in design.blocks
        )
        responses = tuple(rng.normal(size=blk.n) for blk in design.blocks)
        data = AssignmentAndOutcomes(assignment=Assignment(z=z), responses=responses)
        shifted = AssignmentAndOutcomes(
            assignment=data.assignment,
            responses=tuple(r + c * np.asarray(zi, dtype=float) for r, zi in zip(responses, z)),
        )
        base = f_statistic(block_effects(design, data).tau_hat, w, q2)
        moved = f_statistic(block_effects(design, shifted).tau_hat, w, q2)
        assert moved == pytest.approx(base, rel=1e-9)


def test_zero_denominator_when_effects_fit_basis_exactly():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    design, data, q2 = _pairs_with_effects(2.0 + 3.0 * x, x)
    w = block_weights(design)
    tau_hat = block_effects(design, data).tau_hat
    with pytest.raises(ZeroDenominator):
        f_statistic(tau_hat, w, q2)


def test_basis_without_covariates_is_rejected():
    design = BlockDesign.from_sizes([2] * 4, [1] * 4)
    q1 = build_q1(design)
    with pytest.raises(BadQPair):
        f_statistic(np.arange(4.0), block_weights(design), q1)
    data = AssignmentAndOutcomes(
        assignment=Assignment(z=((1, 0),) * 4),
        responses=tuple(np.array([float(i), 0.0]) for i in range(4)),
    )
    with pytest.raises(BadQPair):
        permutation_test(design, data, q1)


def test_exact_path_flags_and_determinism():
    rng = np.random.default_rng(11)
    taus = rng.normal(size=8) + 0.8 * np.arange(8)
    design, data, q2 = _pairs_with_effects(taus, np.arange(8.0))
    first = permutation_test(design, data, q2, max_draws=10_000, seed=5)
    second = permutation_test(design, data, q2, max_draws=10_000, seed=99)
    assert first.exact and second.exact
    assert first.draws == 256
    assert first.seed is None
    assert first.p_value == second.p_value
    assert 0.0 < first.p_value <= 1.0
    threaded = permutation_test(design, data, q2, max_draws=10_000, threads=2)
    assert threaded.p_value == first.p_value


def test_exact_path_matches_direct_enumeration():
    rng = np.random.default_rng(29)
    design = BlockDesign.from_sizes([2, 2, 3, 4], [1, 1, 1, 2])
    w = block_weights(design)
    q2 = build_q2(design, xbar=rng.normal(size=design.n_blocks))
    responses = tuple(rng.normal(size=blk.n) for blk in design.blocks)
    observed = Assignment(z=tuple(next(iter(enumerate_assignments(design))).z))
    data = AssignmentAndOutcomes(assignment=observed, responses=responses)

    t = f_statistic(block_effects(design, data).tau_hat, w, q2)
    thresh = t - 1e-12 * abs(t)
    hits = 0
    total = 0
    for a in enumerate_assignments(design):
        replay = AssignmentAndOutcomes(assignment=a, responses=responses)
        try:
            f = f_statistic(block_effects(design, replay).tau_hat, w, q2)
        except ZeroDenominator:
            f = np.inf
        hits += f >= thresh
        total += 1

    result = permutation_test(design, data, q2, max_draws=10_000)
    assert result.exact
    assert result.draws == total == 72
    assert result.f_observed == pytest.approx(t, rel=1e-12)
    assert result.p_value == pytest.approx(hits / total, abs=0.0)


def test_monte_carlo_agrees_with_exact_enumeration():
    rng = np.random.default_rng(3)
    taus = rng.normal(size=14) + 0.55 * np.arange(14) / 13.0
    design, data, q2 = _pairs_with_effects(taus, np.arange(14.0))
    exact = permutation_test(design, data, q2, max_draws=1 << 14)
    assert exact.exact and exact.draws == 16384
    assert 0.05 < exact.p_value < 0.9
    mc = permutation_test(design, data, q2, max_draws=10_000, seed=1)
    assert not mc.exact
    assert mc.draws == 10_000
    assert abs(mc.p_value - exact.p_value) < 0.02


def test_monte_carlo_determinism_and_thread_invariance():
    rng = np.random.default_rng(13)
    taus = rng.normal(size=15)
    design, data, q2 = _pairs_with_effects(taus, np.arange(15.0))
    one = permutation_test(design, data, q2, max_draws=9_000, seed=4, threads=1)
    two = permutation_test(design, data, q2, max_draws=9_000, seed=4, threads=3)
    assert not one.exact
    assert one.seed == 4
    assert one.p_value == two.p_value
    assert one.draws == two.draws == 9_000
    other_seed = permutation_test(design, data, q2, max_draws=9_000, seed=5)
    assert other_seed.p_value >= 1.0 / 9_001
    assert one.p_value >= 1.0 / 9_001
    assert one.p_value <= 1.0


def test_degenerate_observed_statistic_counts_degenerate_replays():
    x = np.array([1.0, 2.0, 3.0])
    design, data, q2 = _pairs_with_effects(x.copy(), x)
    result = permutation_test(design, data, q2)
    assert result.exact
    assert np.isinf(result.f_observed)
    assert result.notes
    # Only the two sign patterns +-(1, 2, 3) fit an intercept plus slope in x
    # exactly, so exactly two of the eight replays are degenerate too.
    assert result.p_value == pytest.approx(2.0 / 8.0, abs=0.0)
    payload = result.to_dict()
    assert payload["f_observed"] is None
    assert payload["notes"]


def test_constant_responses_give_p_one():
    design = BlockDesign.from_sizes([2] * 4, [1] * 4)
    data = AssignmentAndOutcomes(
        assignment=Assignment(z=((1, 0),) * 4),
        responses=tuple(np.full(2, 7.0) for _ in range(4)),
    )
    q2 = build_q2(design, xbar=np.arange(4.0))
    result = permutation_test(design, data, q2)
    assert result.p_value == 1.0
    assert result.notes


def test_result_dict_validates_against_shipped_schema():
    jsonschema = pytest.importorskip("jsonschema")
    import json
    from importlib import resources

    schema = json.loads(
        resources.files("stratavar").joinpath("schemas/het_test.schema.json").read_text()
    )
    rng = np.random.default_rng(21)
    taus = rng.normal(size=6)
    design, data, q2 = _pairs_with_effects(taus, np.arange(6.0))
    result = permutation_test(design, data, q2)
    jsonschema.validate(result.to_dict(), schema)

    x = np.array([1.0, 2.0, 3.0])
    design, data, q2 = _pairs_with_effects(x.copy(), x)
    degenerate = permutation_test(design, data, q2)
    jsonschema.validate(degenerate.to_dict(), schema)


# ---------------------------------------------------------------------------
# Monte Carlo sampler: option tables grouped by (size, treated count)
# ---------------------------------------------------------------------------


def _mixed_experiment(seed):
    """Blocks of (size, treated) (2, 1), (3, 1), (3, 2) and (4, 2), interleaved."""
    rng = np.random.default_rng(seed)
    layout = [(2, 1), (3, 1), (3, 2), (4, 2), (2, 1), (3, 2), (4, 2), (3, 1), (2, 1), (2, 1)]
    design = BlockDesign.from_sizes([n for n, _ in layout], [k for _, k in layout])
    z = tuple(tuple(int(j < k) for j in range(n)) for n, k in layout)
    responses = tuple(rng.normal(size=n) for n, _ in layout)
    data = AssignmentAndOutcomes(assignment=Assignment(z=z), responses=responses)
    return design, data


def _shuffled_experiment(layout, responses, z, xbar, perm):
    """Design, data and q2 of the blocks in the order ``perm``, each with its own rows."""
    design = BlockDesign.from_sizes([layout[i][0] for i in perm], [layout[i][1] for i in perm])
    data = AssignmentAndOutcomes(
        assignment=Assignment(z=tuple(z[i] for i in perm)),
        responses=tuple(responses[i] for i in perm),
    )
    return design, data, build_q2(design, xbar=xbar[perm])


def test_exact_test_does_not_depend_on_the_block_order():
    # the replays lay the blocks out in group order themselves, so permuting
    # the blocks together with their indicators, responses and covariate rows
    # changes nothing; rounded responses tie many replayed F values
    rng = np.random.default_rng(47)
    kinds = [(2, 1), (3, 1), (3, 2), (4, 2)]
    for _ in range(40):
        layout = [kinds[0]] * 20  # 2^20 assignments, so a layout is drawn below
        while math.prod(math.comb(n, k) for n, k in layout) > 100_000:
            layout = [kinds[i] for i in rng.integers(0, 4, size=rng.integers(6, 10))]
        z = [tuple(rng.permutation([1] * k + [0] * (n - k)).tolist()) for n, k in layout]
        responses = [np.round(rng.normal(size=n) * 2.0) for n, _ in layout]
        xbar = rng.normal(size=(len(layout), 2))
        want, got = (
            permutation_test(*_shuffled_experiment(layout, responses, z, xbar, perm), 100_000)
            for perm in (np.arange(len(layout)), rng.permutation(len(layout)))
        )
        assert want.exact
        assert (got.p_value, got.draws, got.exact) == (want.p_value, want.draws, want.exact)
        assert got.f_observed == pytest.approx(want.f_observed, rel=1e-9)


def _replayed_effects(design, data, q2, max_cells, m, seed):
    """(m, B) effects of m replays, columns in group order, as the replay kernel decodes them.

    A NaN threshold leaves every replay unclear, so the kernel scores its
    whole piece again by ``_f_values``, whose first argument is the piece's
    decoded effects.
    """
    w, basis = block_weights(design), q2.basis[None]
    live = np.ones((1, 1), dtype=bool)
    rep = hettest._replays(
        design, data.r[None], w, q2.q1_rank, [basis], np.full((1, 1), np.nan), live, max_cells
    )
    tables = hettest._replay_tables(rep, slice(None))
    with mock.patch.object(hettest, "_f_values", wraps=hettest._f_values) as rescored:
        hettest._replay_piece(rep, tables, slice(None), (np.random.default_rng(seed), m))
    assert rescored.call_count == 1
    return rep, rescored.call_args.args[0]


@pytest.mark.parametrize("max_cells", [math.inf, 0])
def test_sampler_draws_every_block_option_uniformly(max_cells):
    design, data = _mixed_experiment(17)
    flat = np.concatenate(data.responses)
    tables = _option_groups(design, flat)
    q2 = build_q2(design, xbar=np.arange(design.n_blocks, dtype=float))
    m = 30_000
    rep, t_mat = _replayed_effects(design, data, q2, max_cells, m, seed=5)
    assert [(idx.tolist(), kt) for idx, kt, *_ in tables] == [
        ([0, 4, 8, 9], 1), ([1, 7], 1), ([2, 5], 2), ([3, 6], 2)
    ]
    # every group is tabled, or none is; tabled ones make super-blocks of 2**4, 3**2 and 6**2 rows
    assert len(rep.keyed) == (4 if max_cells == 0 else 0)
    assert [(col, opts.shape[1], kb) for col, opts, kb in rep.runs] == (
        [] if max_cells == 0 else [(0, 4, 4), (4, 2, 2), (6, 2, 2), (8, 2, 2)]
    )
    assert t_mat.shape == (m, design.n_blocks)
    picks, col = [], 0
    for _, kt, r, table in tables:
        for g in range(r.shape[0]):
            options = table[g]
            c = options.shape[0]
            assert c == math.comb(r.shape[1], kt)
            # every drawn effect is one of the block's options, which are distinct here
            hit = np.isclose(t_mat[:, col][:, None], options[None, :], rtol=0.0, atol=1e-12)
            assert np.all(hit.sum(axis=1) == 1)
            picks.append(hit.argmax(axis=1))
            counts = hit.sum(axis=0)
            p = 1.0 / c
            assert np.all(np.abs(counts - m * p) <= 5.0 * np.sqrt(m * p * (1 - p)))
            col += 1
    # a super-block's digits are one uniform draw over all its option rows:
    # the four (2, 1) blocks' 16 option tuples, the two (4, 2) blocks' 36
    for cols, c in (([0, 1, 2, 3], 2), ([8, 9], 6)):
        tuples = np.ravel_multi_index([picks[i] for i in cols], [c] * len(cols))
        counts = np.bincount(tuples, minlength=c ** len(cols))
        p = 1.0 / counts.size
        assert np.all(np.abs(counts - m * p) <= 5.0 * np.sqrt(m * p * (1 - p)))


def test_one_replicate_kernel_rescores_a_piece_with_tabled_and_keyed_blocks(monkeypatch):
    # blocks of 10 with 5 treated have 252 options, 1,260 cells: they draw
    # keys; pairs and triplets are tabled. A threshold at an attained replay
    # F leaves that replay unclear, so its piece is scored again by the formula.
    rng = np.random.default_rng(29)
    layout = [(2, 1), (10, 5), (3, 1), (2, 1), (10, 5), (3, 2), (2, 1), (3, 1), (2, 1)]
    design = BlockDesign.from_sizes([n for n, _ in layout], [k for _, k in layout])
    z = tuple(tuple(int(j < k) for j in range(n)) for n, k in layout)
    data = AssignmentAndOutcomes(
        assignment=Assignment(z=z), responses=tuple(rng.normal(size=n) for n, _ in layout)
    )
    q2 = build_q2(design, xbar=rng.normal(size=(design.n_blocks, 2)))
    m = 400
    rep, t_mat = _replayed_effects(design, data, q2, hettest.OPTION_CELLS, m, seed=3)
    assert [(col, kt, a.shape[1:]) for col, kt, a in rep.keyed] == [(7, 5, (2, 10))]
    order = np.concatenate([idx for _, _, idx, _ in design.size_groups])
    w, basis = block_weights(design)[order], q2.basis[order]
    f = hettest._f_values(t_mat, w, basis, q2.q1_rank)
    attained = np.sort(f)[m // 2]
    thresh = np.full((1, 1), attained)
    live = np.ones((1, 1), dtype=bool)
    rep = hettest._replays(
        design, data.r[None], block_weights(design), q2.q1_rank, [q2.basis[None]], thresh, live,
        hettest.OPTION_CELLS,
    )
    tables = hettest._replay_tables(rep, slice(None))
    with mock.patch.object(hettest, "_f_values", wraps=hettest._f_values) as rescored:
        got = hettest._replay_piece(rep, tables, slice(None), (np.random.default_rng(3), m))
    assert rescored.call_count == 1
    assert got[0, 0] == np.count_nonzero(f >= attained) == m - m // 2
    # the same draws through permutation_test: one piece, seeded by (seed, 0)
    assert hettest._replay_pieces(1, rep.cells, m) == [(0, 1, m)]
    monkeypatch.setattr(hettest, "chunk_rng", lambda *key: np.random.default_rng(3))
    monkeypatch.setattr(hettest, "_replay_threshold", lambda t: attained)
    result = permutation_test(design, data, q2, max_draws=m, seed=0)
    assert result.p_value == (1 + got[0, 0]) / (1 + m)


def test_exact_path_matches_direct_enumeration_on_interleaved_blocks():
    # blocks of one (size, treated) group are not adjacent, so the grouped
    # replay order differs from the design order
    rng = np.random.default_rng(37)
    layout = [(3, 2), (2, 1), (4, 2), (2, 1), (3, 1), (2, 1), (4, 2), (3, 2)]
    design = BlockDesign.from_sizes([n for n, _ in layout], [k for _, k in layout])
    w = block_weights(design)
    q2 = build_q2(design, xbar=rng.normal(size=(design.n_blocks, 2)))
    responses = tuple(
        rng.normal(size=n) + np.arange(n) * i / 4.0 for i, (n, _) in enumerate(layout)
    )
    observed = Assignment(z=tuple(tuple(int(j < k) for j in range(n)) for n, k in layout))
    data = AssignmentAndOutcomes(assignment=observed, responses=responses)

    def f_of(assignment):
        replay = AssignmentAndOutcomes(assignment=assignment, responses=responses)
        return f_statistic(block_effects(design, replay).tau_hat, w, q2)

    t = f_of(observed)
    fs = np.array([f_of(a) for a in enumerate_assignments(design)])
    result = permutation_test(design, data, q2, max_draws=10_000)
    assert result.exact and result.draws == fs.size == 3 * 2 * 6 * 2 * 3 * 2 * 6 * 3
    assert 0.05 < result.p_value < 0.95
    assert result.p_value == np.mean(fs >= t - 1e-12 * abs(t))


@pytest.mark.parametrize("option_cells", [hettest.OPTION_CELLS, 0])
def test_monte_carlo_agrees_with_exact_enumeration_on_mixed_blocks(monkeypatch, option_cells):
    rng = np.random.default_rng(23)
    layout = [(4, 2), (2, 1), (3, 2), (2, 1), (3, 1), (2, 1), (3, 2)]
    layout += [(4, 2), (3, 1), (2, 1), (3, 1), (3, 2), (2, 1)]
    design = BlockDesign.from_sizes([n for n, _ in layout], [k for _, k in layout])
    xbar = np.linspace(0.0, 1.0, design.n_blocks)
    z = tuple(tuple(int(j < k) for j in range(n)) for n, k in layout)
    responses = tuple(
        rng.normal(size=n) + 0.8 * xbar[i] * np.array(zi)
        for i, (n, zi) in enumerate(zip(design.sizes, z))
    )
    data = AssignmentAndOutcomes(assignment=Assignment(z=z), responses=responses)
    q2 = build_q2(design, xbar=xbar)
    exact = permutation_test(design, data, q2, max_draws=1_000_000)
    assert exact.exact and exact.draws == 2**5 * 3**6 * 6**2
    assert 0.02 < exact.p_value < 0.98
    # 0 forces every block through the sort-key path instead of its option table
    monkeypatch.setattr(hettest, "OPTION_CELLS", option_cells)
    mc = permutation_test(design, data, q2, max_draws=20_000, seed=8)
    assert not mc.exact and mc.draws == 20_000
    se = math.sqrt(exact.p_value * (1 - exact.p_value) / mc.draws)
    assert abs(mc.p_value - exact.p_value) < 5 * se + 1e-4


def test_monte_carlo_thread_invariance_across_cell_bounded_chunks():
    rng = np.random.default_rng(31)
    b = 600
    design, data, q2 = _pairs_with_effects(rng.normal(size=b), rng.normal(size=b))
    rep, _ = _replayed_effects(design, data, q2, hettest.OPTION_CELLS, 1, seed=0)
    assert len(hettest._replay_pieces(1, rep.cells, 1_500)) >= 3
    one = permutation_test(design, data, q2, max_draws=1_500, seed=2, threads=1)
    two = permutation_test(design, data, q2, max_draws=1_500, seed=2, threads=2)
    assert not one.exact and one.draws == two.draws == 1_500
    assert one.p_value == two.p_value


def test_exact_path_samples_when_a_block_table_exceeds_the_cell_limit(monkeypatch):
    # one 18-unit block with 9 treated: exact enumeration tables its 48,620
    # subsets, 437,580 cells (about 10 MiB traced at peak)
    sizes = [18, 2, 2, 3]
    design = BlockDesign.from_sizes(sizes, [9, 1, 1, 1])
    rng = np.random.default_rng(3)
    data = AssignmentAndOutcomes(
        assignment=Assignment(z=((1,) * 9 + (0,) * 9, (1, 0), (0, 1), (1, 0, 0))),
        responses=tuple(rng.normal(size=n) for n in sizes),
    )
    q2 = build_q2(design, xbar=np.array([0.0, 1.0, 3.0, 2.0]))
    total = 48_620 * 2 * 2 * 3

    def traced_run():
        tracemalloc.start()
        try:
            result = permutation_test(design, data, q2, max_draws=total, seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak

    exact, exact_peak = traced_run()
    assert exact.exact and exact.draws == total and not exact.notes
    assert exact_peak > 8 * 2**20  # the bound below would catch the table

    monkeypatch.setattr(hettest, "EXACT_OPTION_CELLS", 100_000)
    sampled, peak = traced_run()
    assert peak < 6 * 2**20, f"peak traced memory {peak / 2**20:.1f} MiB"
    assert not sampled.exact and sampled.draws == total and sampled.seed == 2
    assert sampled.notes == (
        "exact enumeration of 583440 assignments needs a 437580-cell option table for "
        "one block, above the limit of 100000; sampled 583440 instead",
    )
    assert abs(sampled.p_value - exact.p_value) < 0.01
