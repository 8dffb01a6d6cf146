"""Design construction, validation, enumeration, and sampling."""
from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from scipy import stats

from stratavar import (
    AssignmentAndOutcomes,
    Block,
    BlockDesign,
    DesignClass,
    DimensionMismatch,
    InfeasibleBlock,
    PotentialWorld,
    SpaceTooLarge,
    TooFewBlocks,
    block_weights,
    classify_design,
    enumerate_assignments,
    ingest_csv,
    n_assignments,
    sample_assignment,
    validate_design,
)
from stratavar.design import _draw_treated, space_exceeds


def test_weights_average_to_one_and_match_hand_values():
    design = BlockDesign.from_sizes([2, 3], [1, 1])
    w = block_weights(design)
    # B=2, N=5: w = (2*2/5, 2*3/5)
    assert w == pytest.approx([0.8, 1.2], abs=1e-15)
    assert w.mean() == pytest.approx(1.0, abs=1e-15)

    rng = np.random.default_rng(0)
    sizes = rng.integers(2, 9, size=17)
    design = BlockDesign.from_sizes(sizes, np.ones_like(sizes))
    assert block_weights(design).mean() == pytest.approx(1.0, abs=1e-12)


def test_validate_rejects_degenerate_designs():
    with pytest.raises(TooFewBlocks):
        validate_design(BlockDesign.from_sizes([4], [2]))
    with pytest.raises(InfeasibleBlock):
        validate_design(BlockDesign.from_sizes([2, 1], [1, 1]))
    with pytest.raises(InfeasibleBlock):
        validate_design(BlockDesign.from_sizes([2, 3], [1, 0]))
    with pytest.raises(InfeasibleBlock):
        validate_design(BlockDesign.from_sizes([2, 3], [1, 3]))


def test_validate_accepts_and_returns_the_design():
    design = BlockDesign.from_sizes([2, 2, 4], [1, 1, 2])
    assert validate_design(design) is design


def test_validate_checks_covariate_consistency():
    good = BlockDesign.from_sizes([2, 2], [1, 1], covariates=[np.ones((2, 3)), np.zeros((2, 3))])
    validate_design(good)

    ragged = BlockDesign.from_sizes([2, 2], [1, 1], covariates=[np.ones((2, 3)), np.zeros((2, 2))])
    with pytest.raises(DimensionMismatch):
        validate_design(ragged)

    wrong_rows = BlockDesign.from_sizes([2, 2], [1, 1], covariates=[np.ones((3, 1)), np.ones((2, 1))])
    with pytest.raises(DimensionMismatch):
        validate_design(wrong_rows)

    nonfinite = BlockDesign.from_sizes(
        [2, 2], [1, 1], covariates=[np.array([[1.0], [np.nan]]), np.ones((2, 1))]
    )
    with pytest.raises(DimensionMismatch):
        validate_design(nonfinite)


def test_validate_names_the_block_with_a_non_finite_covariate():
    rng = np.random.default_rng(3)
    sizes = [2, 3, 4, 2, 3]
    covariates = [rng.normal(size=(n, 2)) for n in sizes]
    covariates[2][3, 1] = np.inf
    design = BlockDesign.from_sizes(sizes, [1, 1, 2, 1, 2], covariates=covariates)
    with pytest.raises(DimensionMismatch, match="block '3' covariates contain non-finite"):
        validate_design(design)


def _block_by_block_covariate_error(design):
    """Message of the covariate check done one block at a time, or None."""
    covs = [np.asarray(b.covariates, dtype=float) for b in design.blocks]
    for b, arr in zip(design.blocks, covs):
        if arr.ndim != 2 or arr.shape[0] != b.n:
            return f"block {b.block_id!r} covariates have shape {arr.shape}, expected ({b.n}, K)"
    dims = {arr.shape[1] for arr in covs}
    if len(dims) > 1:
        return f"covariate dimension differs across blocks: {sorted(dims)}"
    finite = np.isfinite(np.concatenate(covs)).all(axis=1)
    if not finite.all():
        i = int(np.searchsorted(design.unit_starts, np.argmin(finite), side="right")) - 1
        return f"block {design.blocks[i].block_id!r} covariates contain non-finite values"
    return None


@pytest.mark.parametrize(
    "covariates",
    [
        [np.ones((2, 2)), np.ones((3, 2)), np.ones((4, 2))],  # well formed
        [np.ones((2, 2)), np.ones((2, 2)), np.ones((4, 3))],  # rows of block 2, then width
        [np.ones((2, 2)), np.ones((3, 1)), np.ones((4, 3))],  # widths only
        [np.ones(2), np.ones(3), np.ones(4)],  # every block one-dimensional
        [np.ones((2, 2)), np.ones(3), np.ones((4, 2))],  # ranks differ
        [np.ones((2, 1, 1)), np.ones((3, 1, 1)), np.ones((4, 1, 1))],  # three-dimensional
        [np.ones((2, 2)), np.full((3, 1), np.nan), np.ones((4, 3))],  # width before finiteness
        [np.ones((2, 2)), np.ones((3, 2)), np.array([[1.0, 2.0]] * 3 + [[np.inf, 0.0]])],
        [[[1, 2], [3, 4]], [[5, 6]] * 3, [["7", "8"]] * 4],  # lists, integers and strings
        [[[1.0]] * 2, [[2.0]] * 3, [[3.0]] * 5],  # rows of the last block
    ],
)
def test_validate_covariate_messages_match_the_block_by_block_check(covariates):
    design = BlockDesign(
        tuple(
            Block(str(i + 1), n, 1, covariates=c)
            for i, (n, c) in enumerate(zip([2, 3, 4], covariates))
        )
    )
    want = _block_by_block_covariate_error(design)
    if want is None:
        assert validate_design(design) is design
    else:
        with pytest.raises(DimensionMismatch) as caught:
            validate_design(design)
        assert str(caught.value) == want


def test_classification():
    assert classify_design(BlockDesign.from_sizes([2, 2, 2], [1, 1, 1])) is DesignClass.FINE
    # triplets with a singleton arm on either side stay fine
    assert classify_design(BlockDesign.from_sizes([3, 3], [1, 2])) is DesignClass.FINE
    # a quartet with one treated unit is still fine; 2:2 is coarse
    assert classify_design(BlockDesign.from_sizes([4, 4], [1, 3])) is DesignClass.FINE
    assert classify_design(BlockDesign.from_sizes([4, 4], [2, 2])) is DesignClass.COARSE
    assert classify_design(BlockDesign.from_sizes([4, 6], [2, 3])) is DesignClass.COARSE
    assert classify_design(BlockDesign.from_sizes([2, 4], [1, 2])) is DesignClass.MIXED


def test_assignment_space_size():
    design = BlockDesign.from_sizes([2, 2, 3], [1, 1, 1])
    assert n_assignments(design) == 2 * 2 * 3
    design = BlockDesign.from_sizes([4, 5], [2, 2])
    assert n_assignments(design) == math.comb(4, 2) * math.comb(5, 2)


def test_enumeration_is_exhaustive_and_valid():
    design = BlockDesign.from_sizes([2, 3, 4], [1, 1, 2])
    seen = set()
    for a in enumerate_assignments(design):
        for zi, block in zip(a.z, design.blocks):
            assert len(zi) == block.n
            assert sum(zi) == block.n_treated
        seen.add(a.z)
    assert len(seen) == n_assignments(design) == 2 * 3 * 6


def test_enumeration_order_is_deterministic():
    design = BlockDesign.from_sizes([2, 3], [1, 1])
    listed = [a.z for a in enumerate_assignments(design)]
    # last block varies fastest, treated subsets in ascending index order
    assert listed[0] == ((1, 0), (1, 0, 0))
    assert listed[1] == ((1, 0), (0, 1, 0))
    assert listed[2] == ((1, 0), (0, 0, 1))
    assert listed[3] == ((0, 1), (1, 0, 0))
    assert listed == [a.z for a in enumerate_assignments(design)]


def test_enumeration_cap_raises_before_yielding():
    design = BlockDesign.from_sizes([4] * 10, [2] * 10)
    gen = enumerate_assignments(design, cap=1000)
    with pytest.raises(SpaceTooLarge):
        next(gen)


def test_enumeration_cap_names_the_cap_not_a_space_of_thousands_of_digits():
    # 2^20000 has 6,021 digits, more than int-to-str conversion allows by default
    design = BlockDesign.from_sizes([2] * 20_000, [1] * 20_000)
    capped = r"^assignment space has more elements than the cap of 1000$"
    with pytest.raises(SpaceTooLarge, match=capped):
        next(enumerate_assignments(design, cap=1000))


def test_space_exceeds_compares_the_exact_count_with_the_limit():
    design = BlockDesign.from_sizes([2, 3, 4, 5], [1, 2, 2, 3])
    assert n_assignments(design) == 360
    exceeds = [space_exceeds(design, limit) for limit in (0, 359, 360, 361)]
    assert exceeds == [True, True, False, False]


def test_sampling_is_deterministic_per_seed():
    design = BlockDesign.from_sizes([2, 3, 5], [1, 2, 2])
    a = sample_assignment(design, 123)
    b = sample_assignment(design, 123)
    c = sample_assignment(design, 124)
    assert a.z == b.z
    assert a.z != c.z
    for zi, block in zip(a.z, design.blocks):
        assert sum(zi) == block.n_treated


def test_sampling_accepts_generator_and_seedsequence():
    design = BlockDesign.from_sizes([2, 2], [1, 1])
    from_int = sample_assignment(design, 7)
    from_gen = sample_assignment(design, np.random.default_rng(7))
    from_seq = sample_assignment(design, np.random.SeedSequence(7))
    assert from_int.z == from_gen.z == from_seq.z


def test_sampling_is_uniform_over_the_assignment_space():
    # chi-squared goodness of fit on 24000 draws, on a space of 2 * 6 = 12
    # with one block per (size, treated count) group, and on one of
    # 3 * 3 * 2 = 18 whose two triplets are drawn as one group
    for sizes, treated in (([2, 4], [1, 2]), ([3, 3, 2], [1, 1, 1])):
        design = BlockDesign.from_sizes(sizes, treated)
        space = [a.z for a in enumerate_assignments(design)]
        index = {z: i for i, z in enumerate(space)}
        counts = np.zeros(len(space))
        rng = np.random.default_rng(2024)
        draws = 24_000
        for _ in range(draws):
            counts[index[sample_assignment(design, rng).z]] += 1
        expected = draws / len(space)
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        p = stats.chi2.sf(chi2, df=len(space) - 1)
        assert p > 1e-3, (sizes, treated, p)


def test_batched_draws_treat_each_blocks_count():
    design = BlockDesign.from_sizes([2, 3, 3, 4, 2, 5], [1, 1, 2, 2, 1, 2])
    z = _draw_treated(design, np.random.default_rng(3), 500)
    assert z.shape == (500, design.n_units) and z.dtype == bool
    per_block = np.add.reduceat(z, design.unit_starts, axis=1)
    assert np.array_equal(per_block, np.broadcast_to(design.treated_counts, per_block.shape))


def test_batched_draws_are_uniform_over_the_assignment_space():
    # the chi-squared check of the one-assignment sampler, on the rows of
    # one (R, N) draw per design
    for sizes, treated in (([2, 4], [1, 2]), ([3, 3, 2], [1, 1, 1])):
        design = BlockDesign.from_sizes(sizes, treated)
        space = [a.indicators.tolist() for a in enumerate_assignments(design)]
        index = {tuple(z): i for i, z in enumerate(space)}
        draws = 24_000
        rows = _draw_treated(design, np.random.default_rng(2024), draws).astype(int)
        counts = np.bincount([index[tuple(z)] for z in rows.tolist()], minlength=len(space))
        expected = draws / len(space)
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        p = stats.chi2.sf(chi2, df=len(space) - 1)
        assert p > 1e-3, (sizes, treated, p)


def test_seeded_assignment_stream_is_frozen():
    # recorded before the draw cores gained a replicate axis; one draw is unchanged
    design = BlockDesign.from_sizes([2, 3, 3, 4, 2, 5], [1, 1, 2, 2, 1, 2])
    want = [1, 0, 0, 0, 1, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 0, 1, 0]
    assert sample_assignment(design, 11).indicators.tolist() == want


def test_pair_margin_is_one_half():
    design = BlockDesign.from_sizes([2, 2], [1, 1])
    rng = np.random.default_rng(5)
    hits = sum(sample_assignment(design, rng).z[0][0] for _ in range(10_000))
    assert hits / 10_000 == pytest.approx(0.5, abs=0.015)


def test_from_sizes_rejects_ragged_inputs():
    with pytest.raises(DimensionMismatch):
        BlockDesign.from_sizes([2, 2], [1])
    with pytest.raises(DimensionMismatch):
        BlockDesign.from_sizes([2, 2], [1, 1], covariates=[np.ones((2, 1))])


def test_block_covariates_requires_covariates():
    design = BlockDesign.from_sizes([2, 2], [1, 1])
    with pytest.raises(DimensionMismatch):
        design.block_covariates()


def test_designs_compare_and_hash_by_their_packed_arrays(tmp_path):
    rng = np.random.default_rng(12)
    sizes = [2, 3, 4, 2]
    lines = ["block_id,unit_id,treated,response,x1,x2"]
    for i, n in enumerate(sizes):
        for j in range(n):
            r, x1, x2 = rng.normal(size=3).tolist()
            lines.append(f"b{i},{j},{int(j == 0)},{r!r},{x1!r},{x2!r}")
    path = tmp_path / "exp.csv"
    path.write_text("\n".join(lines) + "\n")
    design, _ = ingest_csv(path)

    copy = pickle.loads(pickle.dumps(design))
    assert copy is not design
    assert copy == design
    assert hash(copy) == hash(design)

    shifted = design.covariates.copy()
    shifted[4, 1] += 1.0
    other = BlockDesign._from_arrays(design.ids, design.sizes, design.treated_counts, shifted)
    assert other != design
    bare = BlockDesign._from_arrays(design.ids, design.sizes, design.treated_counts)
    assert bare != design
    assert {design, copy, other, bare} == {design, other, bare}

    # a design built from blocks equals the same design packed from arrays
    covariates = design.block_covariates()
    blocks = BlockDesign.from_sizes(sizes, [1] * 4, covariates=covariates, ids=list(design.ids))
    assert blocks == design
    assert hash(blocks) == hash(design)


def test_per_block_views_are_read_only():
    sizes = np.array([2, 3], dtype=np.int64)
    design = BlockDesign._from_arrays(("a", "b"), sizes, np.array([1, 1]), np.ones((5, 2)))
    data = AssignmentAndOutcomes(next(enumerate_assignments(design)), (np.zeros(2), np.ones(3)))
    world = PotentialWorld(design, data.responses, data.responses)
    for view in (design.blocks[1].covariates, data.responses[0], world.r1[1], world.r0[0]):
        with pytest.raises(ValueError, match="read-only"):
            view[0] = 7.0
    assert data.r.tolist() == [0.0, 0.0, 1.0, 1.0, 1.0]


def test_design_rejects_covariates_on_only_some_blocks():
    design = BlockDesign([Block("a", 2, 1, covariates=np.zeros((2, 1))), Block("b", 2, 1)])
    with pytest.raises(DimensionMismatch, match="must be supplied for all blocks or none"):
        design.covariates
