"""Exact heterogeneity test against the digit-loop enumeration it replaced.

The reference below decodes every assignment's mixed-radix digits block by
block, in chunks of 8,192 assignments, and scores each chunk with
``_f_values``: the enumeration the exact path used before it scored tiles
from split-half projection sums. The tiled path must give the same p-value,
draw count, observed F and notes, bit for bit, on designs with mixed block
sizes, tied F values, degenerate and near-degenerate residuals, constant
responses, one to three covariate columns, tiny cell budgets (so that
most blocks lead and their range splits across many tiles) and one or two
workers.

The Monte Carlo path is held to the same standard against plain sampling
in the documented order, each piece's effects decoded block by block and
scored with ``_f_values``: same draws, so the same p-value, draw count,
observed F and notes, bit for bit.
"""
from __future__ import annotations

import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest

from stratavar import (
    Assignment,
    AssignmentAndOutcomes,
    BlockDesign,
    InputError,
    StratavarError,
    block_effects,
    block_weights,
    build_q2,
    n_assignments,
    permutation_test,
    run_power_curve,
)
from stratavar import hettest
from stratavar._util import chunk_rng
from stratavar.hettest import _option_groups

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

REFERENCE_CHUNK = 8192


def digit_loop_test(design, data, q2) -> tuple[float, int, float, tuple[str, ...]]:
    """p-value, draws, observed F and notes of exact enumeration by digit decoding."""
    w = block_weights(design)
    tau_hat = block_effects(design, data).tau_hat[None, :]
    t = hettest._f_values(tau_hat, w, q2.basis, q2.q1_rank)[0]
    notes = ()
    if np.isinf(t):
        notes = ("observed residual beyond the basis is zero; p-value is the smallest attainable",)
    thresh = hettest._replay_threshold(t)
    observed = np.concatenate(data.responses)
    groups = _option_groups(design, observed)
    order = np.concatenate([idx for idx, *_ in groups])
    options = [row for *_, table in groups for row in table]
    counts = np.array([o.shape[0] for o in options], dtype=np.int64)
    strides = np.append(np.cumprod(counts[:0:-1])[::-1], 1)
    total = n_assignments(design)
    hits = 0
    for start in range(0, total, REFERENCE_CHUNK):
        flat = np.arange(start, min(start + REFERENCE_CHUNK, total), dtype=np.int64)
        t_mat = np.empty((flat.shape[0], len(options)))
        for i, opts in enumerate(options):
            t_mat[:, i] = opts[(flat // strides[i]) % counts[i]]
        f = hettest._f_values(t_mat, w[order], q2.basis[order], q2.q1_rank)
        hits += int(np.sum(f >= thresh))
    return hits / total, total, float(t), notes


@st.composite
def experiments(draw):
    """A design of 3-9 blocks of 2-5 units in any order, its responses and covariates.

    Responses are normal, rounded to a few integers (tied F values),
    constant, or a block effect that is linear in the first covariate,
    exactly (a degenerate observed F) or up to noise of 1e-7
    (near-degenerate residuals).
    """
    n_blocks = draw(st.integers(3, 9))
    layout = []
    for _ in range(n_blocks):
        n = draw(st.integers(2, 5))
        layout.append((n, draw(st.integers(1, n - 1))))
    design = BlockDesign.from_sizes([n for n, _ in layout], [kt for _, kt in layout])
    assume(n_assignments(design) <= 20_000)
    n_cov = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(("normal", "rounded", "constant", "fit", "near fit")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xbar = rng.normal(size=(n_blocks, n_cov))
    if draw(st.booleans()):
        xbar = np.round(xbar)
    if kind == "normal":
        base, tau = rng.normal(size=design.n_units), rng.normal(size=n_blocks)
    elif kind == "rounded":
        base, tau = rng.integers(0, 3, design.n_units), rng.integers(-1, 2, n_blocks)
    elif kind == "constant":
        base, tau = np.full(design.n_units, 2.5), np.zeros(n_blocks)
    else:
        base, tau = np.zeros(design.n_units), 0.5 + 2.0 * xbar[:, 0]
        if kind == "near fit":
            tau = tau + 1e-7 * rng.normal(size=n_blocks)
    z = tuple(tuple(int(j < kt) for j in range(n)) for n, kt in layout)
    responses = np.split(
        base + np.concatenate([np.array(zi) * ti for zi, ti in zip(z, tau)]),
        design.unit_starts[1:],
    )
    data = AssignmentAndOutcomes(assignment=Assignment(z=z), responses=tuple(responses))
    return design, data, xbar


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    experiment=experiments(),
    cells=st.sampled_from((hettest.CELLS, 256, 16)),
    threads=st.sampled_from((1, 1, 2)),
)
def test_exact_path_matches_the_digit_loop(experiment, cells, threads):
    design, data, xbar = experiment
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            q2 = build_q2(design, xbar=xbar)
    except StratavarError:
        assume(False)
    assume(q2.added_covariate_rank >= 1 and q2.rank < design.n_blocks)
    want = digit_loop_test(design, data, q2)
    # small budgets shrink the trailing table and split the leading range across tiles
    with mock.patch.object(hettest, "CELLS", cells):
        got = permutation_test(design, data, q2, max_draws=n_assignments(design), threads=threads)
    assert got.exact
    assert (got.p_value, got.draws, got.f_observed, got.notes) == want


def test_exact_path_stays_within_the_cell_budget():
    # 13 pairs and 3 triplets, 221,184 assignments: the largest exact files
    # of the trial-analysis benchmark
    rng = np.random.default_rng(8)
    layout = [(2, 1)] * 13 + [(3, 1), (3, 2), (3, 1)]
    design = BlockDesign.from_sizes([n for n, _ in layout], [kt for _, kt in layout])
    z = tuple(tuple(int(j < kt) for j in range(n)) for n, kt in layout)
    data = AssignmentAndOutcomes(
        assignment=Assignment(z=z), responses=tuple(rng.normal(size=n) for n, _ in layout)
    )
    q2 = build_q2(design, xbar=rng.normal(size=(len(layout), 2)))
    total = 2**13 * 3**3
    tracemalloc.start()
    try:
        result = permutation_test(design, data, q2, max_draws=total)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.exact and result.draws == total
    assert result.p_value == digit_loop_test(design, data, q2)[0]
    # tiles of TILE_CELLS assignments: the whole test stays below one float
    # matrix of CELLS cells (the digit loop peaked at 3.4 MiB here)
    budget = 8 * hettest.CELLS
    assert peak < budget, f"peak traced memory {peak / 2**20:.1f} MiB of {budget / 2**20:.0f} MiB"


@pytest.mark.parametrize("rounded", [False, True])
@pytest.mark.parametrize("threads", [1, 2])
def test_exact_path_matches_the_digit_loop_on_a_block_wider_than_a_super_block(threads, rounded):
    # a 10-unit block with 5 treated has 252 option rows, more than SUPER_ROWS,
    # so it is a super-block of its own; with six pairs and one triplet the
    # space holds 252 * 2**6 * 3 = 48,384 assignments. Rounded responses tie
    # many replays' F with the observed one, so many are decoded and rescored.
    rng = np.random.default_rng(41)
    layout = [(2, 1), (10, 5), (2, 1), (3, 1), (2, 1), (2, 1), (2, 1), (2, 1)]
    design = BlockDesign.from_sizes([n for n, _ in layout], [kt for _, kt in layout])
    z = tuple(tuple(int(j < kt) for j in range(n)) for n, kt in layout)
    responses = [rng.normal(size=n) + 0.3 * i * np.arange(n) for i, (n, _) in enumerate(layout)]
    responses = tuple(np.round(r) if rounded else r for r in responses)
    data = AssignmentAndOutcomes(assignment=Assignment(z=z), responses=responses)
    q2 = build_q2(design, xbar=rng.normal(size=(len(layout), 2)))
    total = n_assignments(design)
    assert total == 48_384 and 252 > hettest.SUPER_ROWS
    got = permutation_test(design, data, q2, max_draws=total, threads=threads)
    assert got.exact
    assert (got.p_value, got.draws, got.f_observed, got.notes) == digit_loop_test(design, data, q2)
    assert 0.0 < got.p_value < 1.0


def test_max_draws_above_the_ceiling_is_rejected():
    design = BlockDesign.from_sizes([2] * 4, [1] * 4)
    data = AssignmentAndOutcomes(
        assignment=Assignment(z=((1, 0),) * 4),
        responses=tuple(np.array([float(i), 0.0]) for i in range(4)),
    )
    q2 = build_q2(design, xbar=np.arange(4.0))
    assert permutation_test(design, data, q2, max_draws=hettest.MAX_DRAWS).exact
    message = f"max_draws must be at most {hettest.MAX_DRAWS}, got {hettest.MAX_DRAWS + 1}"
    with pytest.raises(InputError) as caught:
        permutation_test(design, data, q2, max_draws=hettest.MAX_DRAWS + 1)
    assert str(caught.value) == message
    # the power study checks before it sizes its Monte Carlo chunks by max_draws
    with pytest.raises(InputError) as caught:
        run_power_curve(a_grid=(1.0,), reps=2, max_draws=hettest.MAX_DRAWS + 1)
    assert str(caught.value) == message


def _piece_effects(rng, groups, m) -> np.ndarray:
    """(m, B) effects of one piece of m replays, columns in group order, in the documented order.

    First, group by group, each tabled group of G blocks with C options
    splits into super-blocks of k blocks, the most with C**k <= SUPER_ROWS
    (at most G), then one of the G % k left over; each kind draws one
    uniform ``uint16`` index per super-block as an (S, 1, m) array, its
    first block the most significant digit. Then each untabled group draws
    (1, m, G, n) uniform keys, and a block treats its kt units with the
    smallest keys.
    """
    t_mat = np.empty((m, sum(idx.shape[0] for idx, *_ in groups)))
    starts = np.cumsum([0] + [idx.shape[0] for idx, *_ in groups])
    for (idx, kt, r, table), start in zip(groups, starts):
        if table is None:
            continue
        g, c = table.shape
        per = 1
        while per < g and c ** (per + 1) <= hettest.SUPER_ROWS:
            per += 1
        for lo, hi, kb in ((0, g - g % per, per), (g - g % per, g, g % per)):
            if hi == lo:
                continue
            index = rng.integers(0, c**kb, ((hi - lo) // kb, 1, m), dtype=np.uint16)
            for s, blocks in enumerate(range(lo, hi, kb)):
                digits = index[s, 0].astype(np.int64)
                for i in reversed(range(kb)):
                    digits, d = np.divmod(digits, c)
                    t_mat[:, start + blocks + i] = table[blocks + i, d]
    for (idx, kt, r, table), start in zip(groups, starts):
        if table is None:
            g, n = r.shape
            keys = rng.random((1, m, g, n))[0]
            treated = np.argpartition(keys, kt - 1, axis=-1)[..., :kt]
            t1 = np.take_along_axis(r[None], treated, axis=-1).sum(axis=-1)
            t_mat[:, start : start + g] = t1 / kt - (r.sum(axis=-1)[None] - t1) / (n - kt)
    return t_mat


def sampled_reference(design, data, q2, max_draws, seed) -> tuple[float, int, float, tuple]:
    """p-value, draws, observed F and notes of Monte Carlo sampling, each
    piece scored by ``_f_values``; piece c draws from ``chunk_rng(seed, c)``."""
    w = block_weights(design)
    tau_hat = block_effects(design, data).tau_hat[None, :]
    t = hettest._f_values(tau_hat, w, q2.basis, q2.q1_rank)[0]
    notes = ()
    if np.isinf(t):
        notes = ("observed residual beyond the basis is zero; p-value is the smallest attainable",)
    thresh = hettest._replay_threshold(t)
    observed = np.concatenate(data.responses)
    groups = _option_groups(design, observed, hettest.OPTION_CELLS)
    order = np.concatenate([idx for idx, *_ in groups])
    # a piece's cells: the larger of its draws (one per super-block or
    # untabled block), an untabled group's keys and the L + 1 sums
    replays = hettest._replays(
        design, observed[None], w, q2.q1_rank, [q2.basis[None]], np.zeros((1, 1)),
        np.ones((1, 1), bool), hettest.OPTION_CELLS,
    )
    hits = 0
    for c, (*_, m) in enumerate(hettest._replay_pieces(1, replays.cells, max_draws)):
        t_mat = _piece_effects(chunk_rng(seed, c), groups, m)
        f = hettest._f_values(t_mat, w[order], q2.basis[order], q2.q1_rank)
        hits += int(np.sum(f >= thresh))
    return (1 + hits) / (1 + max_draws), max_draws, float(t), notes


@st.composite
def sampled_experiments(draw):
    """A design of 3-9 blocks of 2-5 units, too many assignments for ``max_draws``.

    Block effects are exactly linear in the first covariate, linear up to
    noise of 1e-7 (a residual below the degenerate cut) or 1e-5 and 1e-3
    (small residuals above it, where |v|^2 - |U'v|^2 loses most digits),
    rounded to a few integers (tied F values) or constant.
    """
    n_blocks = draw(st.integers(3, 9))
    layout = []
    for _ in range(n_blocks):
        n = draw(st.integers(2, 5))
        layout.append((n, draw(st.integers(1, n - 1))))
    design = BlockDesign.from_sizes([n for n, _ in layout], [kt for _, kt in layout])
    max_draws = draw(st.sampled_from((99, 999)))
    assume(n_assignments(design) > max_draws)
    n_cov = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xbar = rng.normal(size=(n_blocks, n_cov))
    noise = draw(st.sampled_from((0.0, 1e-7, 1e-5, 1e-3, "rounded", "constant")))
    if noise == "rounded":
        base, tau = rng.integers(0, 3, design.n_units), rng.integers(-1, 2, n_blocks)
    elif noise == "constant":
        base, tau = np.full(design.n_units, 2.5), np.zeros(n_blocks)
    else:
        base = np.zeros(design.n_units)
        tau = 0.5 + 2.0 * xbar[:, 0] + noise * rng.normal(size=n_blocks)
    z = tuple(tuple(int(j < kt) for j in range(n)) for n, kt in layout)
    responses = np.split(
        base + np.concatenate([np.array(zi) * ti for zi, ti in zip(z, tau)]),
        design.unit_starts[1:],
    )
    data = AssignmentAndOutcomes(assignment=Assignment(z=z), responses=tuple(responses))
    return design, data, xbar, max_draws


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    experiment=sampled_experiments(),
    option_cells=st.sampled_from((hettest.OPTION_CELLS, hettest.OPTION_CELLS, 0)),
    threads=st.sampled_from((1, 1, 2)),
    seed=st.integers(0, 2**31 - 1),
)
def test_monte_carlo_path_matches_chunkwise_f_values(experiment, option_cells, threads, seed):
    design, data, xbar, max_draws = experiment
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            q2 = build_q2(design, xbar=xbar)
    except StratavarError:
        assume(False)
    assume(q2.added_covariate_rank >= 1 and q2.rank < design.n_blocks)
    # a zero option budget samples every block by random keys, not option tables
    with mock.patch.object(hettest, "OPTION_CELLS", option_cells):
        want = sampled_reference(design, data, q2, max_draws, seed)
        got = permutation_test(design, data, q2, max_draws=max_draws, seed=seed, threads=threads)
    assert not got.exact
    assert (got.p_value, got.draws, got.f_observed, got.notes) == want
