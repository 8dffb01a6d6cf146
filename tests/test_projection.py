"""Projection bases, hat matrices, and leverage handling."""
from __future__ import annotations

import numpy as np
import pytest

from stratavar import (
    BlockDesign,
    DegenerateCovariate,
    DegenerateCovariateWarning,
    DimensionMismatch,
    InsufficientBlocks,
    LeverageOne,
    QMatrix,
    RankDeficient,
    TooManyColumns,
    block_weights,
    build_q1,
    build_q2,
)
from stratavar.projection import _checked_leverages, hat_and_leverage, orthonormal_basis


def _random_design(seed: int, n_blocks: int = 8) -> BlockDesign:
    rng = np.random.default_rng(seed)
    sizes = rng.integers(2, 7, size=n_blocks)
    treated = np.array([rng.integers(1, n) for n in sizes])
    return BlockDesign.from_sizes(sizes, treated)


def test_q1_equal_sizes_is_just_the_intercept():
    design = BlockDesign.from_sizes([2] * 5, [1] * 5)
    q = build_q1(design)
    assert q.rank == 1
    assert q.values.shape == (5, 1)
    assert q.leverages == pytest.approx(np.full(5, 0.2), abs=1e-14)


def test_q1_unequal_sizes_leverage_closed_form():
    design = BlockDesign.from_sizes([2, 2, 3, 5], [1, 1, 1, 2])
    q = build_q1(design)
    assert q.rank == 2
    w = block_weights(design)
    centered = w - 1.0
    expected = 1.0 / design.n_blocks + centered**2 / np.sum(centered**2)
    assert q.leverages == pytest.approx(expected, abs=1e-12)


def test_q1_two_unequal_blocks_has_no_residual_freedom():
    with pytest.raises(InsufficientBlocks):
        build_q1(BlockDesign.from_sizes([2, 4], [1, 2]))


def test_hat_matrix_is_a_projector():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(9, 3))
        hat, lev = hat_and_leverage(values)
        assert hat == pytest.approx(hat.T, abs=1e-12)
        assert hat @ hat == pytest.approx(hat, abs=1e-12)
        assert np.diag(hat) == pytest.approx(lev, abs=1e-14)
        # rows of a projector: sum_j h_ij^2 = h_ii
        assert np.sum(hat**2, axis=1) == pytest.approx(lev, abs=1e-12)
        assert np.trace(hat) == pytest.approx(3.0, abs=1e-10)
        assert np.all(lev >= -1e-12)


def test_hat_matrix_rejects_rank_deficiency():
    values = np.column_stack([np.ones(6), np.ones(6) * 2.0])
    with pytest.raises(RankDeficient):
        hat_and_leverage(values)


def test_trace_identity_for_leverage_reweighting():
    # tr((I-H) diag(1/(1-h)) (I-H)) equals B for any basis with leverages < 1
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        b = int(rng.integers(4, 12))
        k = int(rng.integers(1, b - 1))
        values = rng.normal(size=(b, k))
        hat, lev = hat_and_leverage(values)
        resid = np.eye(b) - hat
        psi_tilde = np.diag(1.0 / (1.0 - lev))
        trace = float(np.trace(resid @ psi_tilde @ resid))
        assert trace == pytest.approx(b, rel=1e-9)


def test_q2_orthogonalizes_the_covariate_block():
    design = _random_design(11)
    rng = np.random.default_rng(12)
    xbar = rng.normal(size=(design.n_blocks, 2))
    q2 = build_q2(design, xbar=xbar)
    q1 = build_q1(design)
    added = q2.values[:, q2.q1_rank :]
    assert q1.values.T @ added == pytest.approx(np.zeros((q1.rank, added.shape[1])), abs=1e-9)
    assert q2.kind == "q2"
    assert q2.rank == q2.q1_rank + q2.added_covariate_rank


def test_q2_hat_equals_direct_regression_hat():
    # the orthogonalized basis spans the same space as [q1, W xbar]
    design = _random_design(21)
    rng = np.random.default_rng(22)
    xbar = rng.normal(size=(design.n_blocks, 2))
    q2 = build_q2(design, xbar=xbar)
    w = block_weights(design)
    direct = np.column_stack([build_q1(design).values, w[:, None] * xbar])
    hat, _ = hat_and_leverage(direct)
    assert q2.hat == pytest.approx(hat, abs=1e-10)


def test_q2_poly_expansion_matches_manual_block_means():
    rng = np.random.default_rng(31)
    sizes = [2, 3, 2, 4, 2, 3]
    covs = [rng.normal(size=(n, 1)) for n in sizes]
    design = BlockDesign.from_sizes(sizes, [1] * 6, covariates=covs)
    q2 = build_q2(design, poly_degree=2)
    manual = np.column_stack(
        [
            [c[:, 0].mean() for c in covs],
            [(c[:, 0] ** 2).mean() for c in covs],
        ]
    )
    q2_manual = build_q2(design, xbar=manual, poly_degree=1)
    assert q2.hat == pytest.approx(q2_manual.hat, abs=1e-10)


def test_q2_column_subset_matches_explicit_selection():
    rng = np.random.default_rng(41)
    sizes = [2, 2, 3, 2, 3]
    covs = [rng.normal(size=(n, 3)) for n in sizes]
    design = BlockDesign.from_sizes(sizes, [1] * 5, covariates=covs)
    q_sub = build_q2(design, columns=[2])
    manual = np.array([[c[:, 2].mean()] for c in covs])
    q_manual = build_q2(design, xbar=manual)
    assert q_sub.hat == pytest.approx(q_manual.hat, abs=1e-10)
    with pytest.raises(DimensionMismatch):
        build_q2(design, columns=[3])


def test_q2_drops_collinear_columns_into_metadata():
    design = _random_design(51)
    rng = np.random.default_rng(52)
    x = rng.normal(size=design.n_blocks)
    xbar = np.column_stack([x, 2.0 * x])
    q2 = build_q2(design, xbar=xbar)
    assert q2.added_covariate_rank == 1
    assert 1 in q2.dropped_columns


def test_q2_warns_on_degenerate_columns_and_keeps_the_rest():
    # a covariate proportional to 1/w vanishes after weighting and centering
    design = _random_design(61)
    w = block_weights(design)
    rng = np.random.default_rng(62)
    xbar = np.column_stack([1.0 / w, rng.normal(size=design.n_blocks)])
    with pytest.warns(DegenerateCovariateWarning):
        q2 = build_q2(design, xbar=xbar)
    assert q2.added_covariate_rank == 1
    assert 0 in q2.dropped_columns


def test_q2_all_degenerate_raises():
    design = _random_design(71)
    w = block_weights(design)
    with pytest.raises(DegenerateCovariate), pytest.warns(DegenerateCovariateWarning):
        build_q2(design, xbar=(1.0 / w)[:, None])


def test_q2_too_many_columns():
    design = BlockDesign.from_sizes([2, 2, 2, 2], [1, 1, 1, 1])
    rng = np.random.default_rng(81)
    with pytest.raises(TooManyColumns):
        build_q2(design, xbar=rng.normal(size=(4, 3)))


def test_too_many_columns_counts_no_more_than_the_blocks():
    # four near-collinear columns orthogonal to the one q1 column: at most
    # three are independent, so the count stops at four columns, not five
    design = BlockDesign.from_sizes([2] * 4, [1] * 4)
    xbar = 1000 + 1e-4 * np.random.default_rng(1).normal(size=(4, 4))
    with pytest.raises(TooManyColumns, match="basis would have 4 columns for 4 blocks"):
        build_q2(design, xbar=xbar)


def test_leverage_one_is_rejected():
    design = BlockDesign.from_sizes([2, 2, 2], [1, 1, 1])
    with pytest.raises(LeverageOne):
        build_q2(design, xbar=np.array([1.0, 0.0, 0.0]))


def test_leverage_one_names_the_first_block_at_one():
    # argmax would name block 3, whose leverage is larger but equally one
    with pytest.raises(LeverageOne, match="at block index 1 is"):
        _checked_leverages(np.array([0.3, 1.0 - 5e-11, 0.2, 1.0]))
    # Pairs, one triplet (block 2) and one quartet (block 5): col(q1) holds the
    # weights, so a spike on block 2 also isolates block 5. Both leverages round
    # to one, block 5's the larger.
    sizes = [2] * 8
    sizes[2], sizes[5] = 3, 4
    xbar = np.zeros(8)
    xbar[2] = 1.0
    with pytest.raises(LeverageOne, match="at block index 2 is"):
        build_q2(BlockDesign.from_sizes(sizes, [1] * 8), xbar=xbar)


def test_psi_matrices_diagonals():
    design = _random_design(91)
    q = build_q1(design)
    one_minus = 1.0 - q.leverages
    assert q.psi == pytest.approx(1.0 / one_minus**2, abs=1e-12)
    assert q.psi_tilde == pytest.approx(1.0 / one_minus, abs=1e-12)


def test_qmatrix_reports_block_count():
    design = _random_design(101, n_blocks=6)
    q = build_q1(design)
    assert isinstance(q, QMatrix)
    assert q.n_blocks == 6


def test_a_hand_built_basis_with_a_leverage_of_one_has_no_reweighting():
    values = np.eye(3)[:, :1]
    q = QMatrix(values, values, np.array([1.0, 0.0, 0.0]), 1, "q1", 1, 0)
    for weights in ("psi", "psi_tilde"):
        with pytest.raises(LeverageOne, match="a leverage is numerically one"):
            getattr(q, weights)


@pytest.mark.parametrize(
    "values, error, match",
    [
        (np.ones(3), DimensionMismatch, r"2-d array with columns, got shape \(3,\)"),
        (np.ones((3, 0)), DimensionMismatch, r"2-d array with columns, got shape \(3, 0\)"),
        (np.arange(6.0).reshape(2, 3), RankDeficient, "basis has 3 columns but only 2 rows"),
    ],
    ids=["flat", "no-columns", "wide"],
)
def test_orthonormal_basis_rejects_a_flat_or_a_wide_array(values, error, match):
    with pytest.raises(error, match=match):
        orthonormal_basis(values)


def test_build_q2_rejects_a_zero_degree_a_row_count_and_a_design_without_covariates():
    design = BlockDesign.from_sizes([2] * 6, [1] * 6)
    with pytest.raises(DimensionMismatch, match="poly_degree must be >= 1, got 0"):
        build_q2(design, xbar=np.arange(6.0), poly_degree=0)
    with pytest.raises(DimensionMismatch, match="xbar has 7 rows for 6 blocks"):
        build_q2(design, xbar=np.arange(7.0))
    with pytest.raises(DimensionMismatch, match="design carries no unit-level covariates"):
        build_q2(design)
