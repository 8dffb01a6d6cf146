"""Exact heterogeneity test against the digit-loop enumeration it replaced.

The reference below decodes every assignment's mixed-radix digits block by
block, in chunks of 8,192 assignments, and scores each chunk with
``_f_values``: the enumeration the exact path used before it scored tiles
from split-half projection sums. The tiled path must give the same p-value,
draw count, observed F and notes, bit for bit, on designs with mixed block
sizes, tied F values, degenerate and near-degenerate residuals, constant
responses, one to three covariate columns, tiny cell budgets (so that
blocks become outer digits and tiles split) and one or two workers.
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
from stratavar.estimators import _option_groups

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

REFERENCE_CHUNK = 8192


def digit_loop_test(design, data, q2) -> tuple[float, int, float, tuple[str, ...]]:
    """p-value, draws, observed F and notes of exact enumeration by digit decoding."""
    w = block_weights(design)
    qm = q2.basis[:, q2.q1_rank :]
    k = q2.added_covariate_rank
    df_den = design.n_blocks - q2.rank
    tau_hat = block_effects(design, data).tau_hat[None, :]
    t = hettest._f_values(tau_hat, w, qm, q2.basis, df_den, k)[0]
    notes = ()
    if np.isinf(t):
        notes = ("observed residual beyond the basis is zero; p-value is the smallest attainable",)
    thresh = hettest._replay_threshold(t)
    observed = np.concatenate(data.responses)
    groups = _option_groups(design, observed, observed)
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
        f = hettest._f_values(t_mat, w[order], qm[order], q2.basis[order], df_den, k)
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
    # small budgets make blocks outer digits and split the high table across tiles
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
