"""Point estimate, classical and projection variance estimators, reports."""
from __future__ import annotations

import importlib.resources
import itertools
import json

import numpy as np
import pytest

from stratavar import (
    Assignment,
    AssignmentAndOutcomes,
    BlockDesign,
    DimensionMismatch,
    EstimatorWarning,
    InputError,
    LeverageOne,
    InvalidAlpha,
    NonFiniteResponse,
    NotCoarse,
    TooFewBlocks,
    UnequalBlocks,
    analyze_experiment,
    block_effects,
    block_weights,
    build_q1,
    build_q2,
    confidence_interval,
    enumerate_assignments,
    estimate_ate,
    sample_assignment,
    var_coarse_classical,
    var_paired_classical,
    var_s1,
    var_s2,
    var_s3,
)
from stratavar.estimators import _option_groups


def _pair_data(taus, base=0.0):
    """Pairs with treated unit first and control response ``base``."""
    design = BlockDesign.from_sizes([2] * len(taus), [1] * len(taus))
    assignment = next(enumerate_assignments(design))
    responses = tuple(np.array([base + t, base]) for t in taus)
    return design, AssignmentAndOutcomes(assignment=assignment, responses=responses)


def _random_experiment(seed, sizes=None):
    """Random design and data; resamples designs whose weight basis is degenerate.

    A single block whose size differs from all the others takes leverage one
    in [e, w - e], where the projection estimators are undefined; such draws
    are rejected when sizes are not pinned by the caller.
    """

    rng = np.random.default_rng(seed)
    while True:
        drawn = sizes if sizes is not None else rng.integers(2, 6, size=int(rng.integers(5, 10)))
        treated = np.array([rng.integers(1, n) for n in drawn])
        design = BlockDesign.from_sizes(drawn, treated)
        try:
            build_q1(design)
        except LeverageOne:
            if sizes is not None:
                raise
            continue
        break
    assignment = sample_assignment(design, rng)
    responses = tuple(rng.normal(size=n) for n in drawn)
    return design, AssignmentAndOutcomes(assignment=assignment, responses=responses)


def test_block_effects_hand_values():
    design = BlockDesign.from_sizes([2, 4], [1, 2])
    assignment_z = ((1, 0), (1, 1, 0, 0))
    data = AssignmentAndOutcomes(
        assignment=Assignment(z=assignment_z),
        responses=(np.array([3.0, 1.0]), np.array([4.0, 6.0, 1.0, 3.0])),
    )
    eff = block_effects(design, data)
    assert eff.tau_hat == pytest.approx([2.0, 3.0])
    assert eff.mean_treated == pytest.approx([3.0, 5.0])
    assert eff.mean_control == pytest.approx([1.0, 2.0])
    # singleton arms report NaN variances, two-unit arms the ddof=1 variance
    assert np.isnan(eff.var_treated[0]) and np.isnan(eff.var_control[0])
    assert eff.var_treated[1] == pytest.approx(2.0)
    assert eff.var_control[1] == pytest.approx(2.0)
    assert eff.sizes.tolist() == [2, 4]


def test_block_effects_validates_alignment():
    design, data = _pair_data([1.0, 2.0])

    short = AssignmentAndOutcomes(
        assignment=Assignment(z=(data.assignment.z[0],)), responses=(data.responses[0],)
    )
    with pytest.raises(DimensionMismatch):
        block_effects(design, short)

    wrong_count = AssignmentAndOutcomes(
        assignment=Assignment(z=((1, 1), (1, 0))), responses=data.responses
    )
    with pytest.raises(DimensionMismatch):
        block_effects(design, wrong_count)

    ragged = AssignmentAndOutcomes(
        assignment=data.assignment,
        responses=(np.array([1.0, 2.0, 3.0]), data.responses[1]),
    )
    with pytest.raises(DimensionMismatch):
        block_effects(design, ragged)


def _block_effects_loop(design, data):
    """Per-block reference: np.mean and np.var(ddof=1) on each arm."""
    rows = []
    for z, r in zip(data.assignment.z, data.responses):
        z = np.asarray(z)
        rt, rc = r[z == 1], r[z == 0]
        rows.append(
            (
                rt.mean(),
                rc.mean(),
                rt.var(ddof=1) if rt.size >= 2 else np.nan,
                rc.var(ddof=1) if rc.size >= 2 else np.nan,
            )
        )
    return np.array(rows).T


def test_block_effects_matches_the_per_block_loop():
    rng = np.random.default_rng(404)
    for _ in range(20):
        sizes = rng.integers(2, 12, size=int(rng.integers(2, 40)))
        treated = np.array([rng.integers(1, n) for n in sizes])
        design = BlockDesign.from_sizes(sizes, treated)
        assignment = sample_assignment(design, rng)
        scale = 10.0 ** rng.integers(-3, 6)
        responses = tuple(scale * (rng.normal(size=n) + rng.normal(5.0, 3.0)) for n in sizes)
        data = AssignmentAndOutcomes(assignment=assignment, responses=responses)
        eff = block_effects(design, data)
        m1, m0, v1, v0 = _block_effects_loop(design, data)
        for got, want in ((eff.mean_treated, m1), (eff.mean_control, m0), (eff.tau_hat, m1 - m0)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)
        for got, want in ((eff.var_treated, v1), (eff.var_control, v0)):
            np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale**2)


def test_block_effects_rejects_non_finite_responses():
    design, data = _pair_data([1.0, 2.0, 3.0])
    for bad in (np.nan, np.inf, -np.inf):
        responses = (data.responses[0], np.array([bad, 0.0]), data.responses[2])
        broken = AssignmentAndOutcomes(assignment=data.assignment, responses=responses)
        with pytest.raises(NonFiniteResponse, match="block '2'"):
            block_effects(design, broken)
    assert issubclass(NonFiniteResponse, InputError)


def test_option_tables_match_block_effects_of_each_subset():
    # under the additivity null the observed responses serve both arms: a
    # table entry is block_effects of the same responses with that subset treated
    rng = np.random.default_rng(41)
    layout = [(3, 2), (2, 1), (4, 2), (3, 1), (2, 1), (4, 2), (3, 1)]
    design = BlockDesign.from_sizes([n for n, _ in layout], [k for _, k in layout])
    responses = tuple(rng.normal(size=n) for n, _ in layout)
    base = [[int(j < k) for j in range(n)] for n, k in layout]
    groups = _option_groups(design, np.concatenate(responses))
    assert sorted(int(i) for idx, *_ in groups for i in idx) == list(range(len(layout)))
    for idx, kt, _, table in groups:
        for g, i in enumerate(idx):
            n = layout[i][0]
            subsets = list(itertools.combinations(range(n), kt))
            assert table[g].shape == (len(subsets),)
            for c, subset in enumerate(subsets):
                z = [list(zi) for zi in base]
                z[i] = [int(j in subset) for j in range(n)]
                assignment = Assignment(z=tuple(tuple(zi) for zi in z))
                data = AssignmentAndOutcomes(assignment=assignment, responses=responses)
                tau = block_effects(design, data).tau_hat
                assert table[g, c] == pytest.approx(tau[i], rel=0.0, abs=1e-12)


def test_estimate_ate_weighted():
    design = BlockDesign.from_sizes([2, 3], [1, 1])

    data = AssignmentAndOutcomes(
        assignment=Assignment(z=((1, 0), (1, 0, 0))),
        responses=(np.array([2.0, 1.0]), np.array([5.0, 2.0, 2.0])),
    )
    eff = block_effects(design, data)
    w = block_weights(design)
    # tau = (1, 3), w = (0.8, 1.2): (0.8*1 + 1.2*3) / 2 = 2.2
    assert estimate_ate(eff, w) == pytest.approx(2.2, abs=1e-14)


def test_paired_variance_hand_value_and_guards():
    design, data = _pair_data([1.0, 3.0])
    eff = block_effects(design, data)
    w = block_weights(design)
    # deviations (-1, 1) around 2: sum 2 over B(B-1) = 2
    assert var_paired_classical(eff, w) == pytest.approx(1.0, abs=1e-14)

    unequal, udata = _random_experiment(3, sizes=[2, 3, 4])
    ueff = block_effects(unequal, udata)
    with pytest.raises(UnequalBlocks):
        var_paired_classical(ueff, block_weights(unequal))

    single = BlockDesign.from_sizes([2], [1])

    sdata = AssignmentAndOutcomes(
        assignment=Assignment(z=((1, 0),)), responses=(np.array([1.0, 0.0]),)
    )
    with pytest.raises(TooFewBlocks):
        var_paired_classical(block_effects(single, sdata), np.ones(1))


def test_paired_variance_warns_on_equal_size_non_pairs():
    design, data = _random_experiment(5, sizes=[4, 4, 4])
    eff = block_effects(design, data)
    with pytest.warns(EstimatorWarning):
        var_paired_classical(eff, block_weights(design))


def test_coarse_variance_hand_value():
    design = BlockDesign.from_sizes([4, 4], [2, 2])

    data = AssignmentAndOutcomes(
        assignment=Assignment(z=((1, 1, 0, 0), (1, 1, 0, 0))),
        responses=(np.array([4.0, 6.0, 1.0, 3.0]), np.array([10.0, 14.0, 2.0, 4.0])),
    )
    eff = block_effects(design, data)
    w = block_weights(design)
    # block 1: 2/2 + 2/2 = 2; block 2: 8/2 + 2/2 = 5; (2 + 5) / B^2 = 1.75
    assert var_coarse_classical(eff, w) == pytest.approx(1.75, abs=1e-14)


def test_coarse_variance_requires_two_per_arm():
    design, data = _pair_data([1.0, 2.0])
    eff = block_effects(design, data)
    with pytest.raises(NotCoarse):
        var_coarse_classical(eff, block_weights(design))


def test_projection_estimators_hand_values():
    design, data = _pair_data([1.0, 3.0])
    eff = block_effects(design, data)
    w = block_weights(design)
    q1 = build_q1(design)
    # B=2 pairs, h=1/2: residuals of tau are (-1, 1)
    # s1: scaled effects (sqrt2, 3 sqrt2), residuals (-sqrt2, sqrt2) -> 4/4
    # s2: 2 / (1/4) scaling -> 8/4; s3: 2 / (1/2) -> 4/4
    assert var_s1(eff, w, q1) == pytest.approx(1.0, rel=1e-12)
    assert var_s2(eff, w, q1) == pytest.approx(2.0, rel=1e-12)
    assert var_s3(eff, w, q1) == pytest.approx(1.0, rel=1e-12)


def test_s1_on_intercept_basis_equals_paired():
    for seed in range(200):
        rng = np.random.default_rng(seed)
        b = int(rng.integers(3, 12))
        design = BlockDesign.from_sizes([2] * b, [1] * b)
        assignment = sample_assignment(design, rng)
        responses = tuple(rng.normal(size=2) * 3.0 for _ in range(b))
        eff = block_effects(design, AssignmentAndOutcomes(assignment, responses))
        w = block_weights(design)
        paired = var_paired_classical(eff, w)
        s1 = var_s1(eff, w, build_q1(design))
        assert s1 == pytest.approx(paired, rel=1e-10, abs=1e-300)


def test_s2_dominates_s1_on_the_intercept_basis():
    for seed in range(300):
        rng = np.random.default_rng(1000 + seed)
        b = int(rng.integers(3, 15))
        size = int(rng.integers(2, 5))
        design = BlockDesign.from_sizes([size] * b, [max(1, size // 2)] * b)
        assignment = sample_assignment(design, rng)
        responses = tuple(rng.normal(size=size) for _ in range(b))
        eff = block_effects(design, AssignmentAndOutcomes(assignment, responses))
        w = block_weights(design)
        q1 = build_q1(design)
        assert var_s2(eff, w, q1) >= var_s1(eff, w, q1) - 1e-15


def _hc3_intercept_variance(xmat: np.ndarray, y: np.ndarray) -> float:
    """Textbook HC3 sandwich, intercept diagonal entry."""
    xtx_inv = np.linalg.inv(xmat.T @ xmat)
    beta = xtx_inv @ (xmat.T @ y)
    resid = y - xmat @ beta
    h = np.einsum("ij,jk,ik->i", xmat, xtx_inv, xmat)
    omega = resid**2 / (1.0 - h) ** 2
    cov = xtx_inv @ (xmat.T * omega) @ xmat @ xtx_inv
    return float(cov[0, 0])


def test_s2_equals_hc3_intercept_variance():
    for seed in range(40):
        design, data = _random_experiment(2000 + seed)
        rng = np.random.default_rng(3000 + seed)
        eff = block_effects(design, data)
        w = block_weights(design)
        xbar = rng.normal(size=(design.n_blocks, 2))
        q2 = build_q2(design, xbar=xbar)
        s2 = var_s2(eff, w, q2)
        hc3 = _hc3_intercept_variance(q2.values, w * eff.tau_hat)
        assert s2 == pytest.approx(hc3, rel=1e-8)


def test_estimators_scale_quadratically():
    rng = np.random.default_rng(77)
    sizes = [4, 4, 6, 6]
    design = BlockDesign.from_sizes(sizes, [2, 2, 3, 3])
    data = AssignmentAndOutcomes(
        assignment=sample_assignment(design, rng),
        responses=tuple(rng.normal(size=n) for n in sizes),
    )
    scaled = AssignmentAndOutcomes(
        assignment=data.assignment, responses=tuple(3.0 * r for r in data.responses)
    )
    eff = block_effects(design, data)
    eff9 = block_effects(design, scaled)
    w = block_weights(design)
    q1 = build_q1(design)
    for fn in (var_s1, var_s2):
        assert fn(eff9, w, q1) == pytest.approx(9.0 * fn(eff, w, q1), rel=1e-12)
    assert var_coarse_classical(eff9, w) == pytest.approx(
        9.0 * var_coarse_classical(eff, w), rel=1e-12
    )


def test_estimators_are_nonnegative():
    for seed in range(50):
        design, data = _random_experiment(4000 + seed)
        eff = block_effects(design, data)
        w = block_weights(design)
        q1 = build_q1(design)
        assert var_s1(eff, w, q1) >= 0.0
        assert var_s2(eff, w, q1) >= 0.0


def test_confidence_interval_frozen_value():
    low, high = confidence_interval(13.4, 4.2**2, 0.05)
    # 13.4 -/+ 1.959963984540054 * 4.2
    assert low == pytest.approx(5.168151264931773, abs=1e-12)
    assert high == pytest.approx(21.631848735068227, abs=1e-12)


def test_confidence_interval_rejects_bad_alpha():
    for alpha in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(InvalidAlpha):
            confidence_interval(0.0, 1.0, alpha)


def test_analyze_checks_alpha_when_no_interval_is_built():
    # with no estimators no confidence_interval runs, so analyze_experiment's check is the only one
    design, data = _pair_data([1.0, 2.0, 4.0])
    with pytest.raises(InvalidAlpha):
        analyze_experiment(design, data, estimators=[], alpha=2.0)


def test_analyze_auto_selects_by_design_class():
    pairs, pdata = _pair_data([1.0, 2.0, 4.0])
    report = analyze_experiment(pairs, pdata)
    assert set(report.estimates) == {"paired", "s1", "s2", "s3"}
    assert report.design_class == "fine"

    rng = np.random.default_rng(8)
    coarse = BlockDesign.from_sizes([4, 4, 6, 6], [2, 2, 3, 3])
    cdata = AssignmentAndOutcomes(
        assignment=sample_assignment(coarse, rng),
        responses=tuple(rng.normal(size=n) for n in [4, 4, 6, 6]),
    )
    report = analyze_experiment(coarse, cdata)
    assert set(report.estimates) == {"coarse", "s1", "s2", "s3"}
    assert report.design_class == "coarse"

    mixed, mdata = _random_experiment(9, sizes=[2, 4, 6])
    report = analyze_experiment(mixed, mdata)
    assert set(report.estimates) == {"s1", "s2", "s3"}
    assert report.design_class == "mixed"
    assert any("s3" in msg for msg in report.warnings)


def test_analyze_rejects_unknown_estimators():
    design, data = _pair_data([1.0, 2.0])
    with pytest.raises(InputError):
        analyze_experiment(design, data, estimators=["s1", "bogus"])


def test_analyze_propagates_incompatibility():
    design, data = _pair_data([1.0, 2.0])
    with pytest.raises(NotCoarse):
        analyze_experiment(design, data, estimators=["coarse"])


def test_report_validates_against_shipped_schema():
    jsonschema = pytest.importorskip("jsonschema")
    design, data = _random_experiment(10, sizes=[2, 3, 3, 2])
    report = analyze_experiment(design, data, alpha=0.1)
    schema_text = (
        importlib.resources.files("stratavar") / "schemas" / "variance_report.schema.json"
    ).read_text()
    jsonschema.validate(report.to_dict(), json.loads(schema_text))


def test_report_intervals_use_each_estimate():
    design, data = _pair_data([1.0, 5.0, 3.0])
    report = analyze_experiment(design, data, alpha=0.05)
    for name, value in report.estimates.items():
        lo, hi = report.intervals[name]
        expected = confidence_interval(report.delta_hat, value, 0.05)
        assert (lo, hi) == pytest.approx(expected, abs=1e-12)
