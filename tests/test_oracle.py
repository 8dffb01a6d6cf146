"""Ground-truth variances, bias identities, and brute-force enumeration."""
from __future__ import annotations

import numpy as np
import pytest

from stratavar import (
    Assignment,
    BlockDesign,
    CateModel,
    DimensionMismatch,
    LeverageOne,
    PotentialWorld,
    PreconditionViolated,
    SpaceTooLarge,
    block_effects,
    block_weights,
    brute_force_expectation,
    brute_force_expectations,
    build_q1,
    build_q2,
    cate,
    draw_world,
    empirical_limit_diagnostics,
    enumerate_assignments,
    estimate_ate,
    expected_bias_s1,
    expected_bias_s2,
    expected_bias_s3,
    expected_bias_scs,
    observed_responses,
    sate,
    sample_assignment,
    true_ate_variance,
    true_block_variance,
    var_coarse_classical,
    var_paired_classical,
    var_s1,
    var_s2,
)


def _random_world(seed: int, sizes=None, treated=None) -> PotentialWorld:
    """A small random schedule whose q1 basis has all leverages below one."""
    rng = np.random.default_rng(seed)
    while True:
        if sizes is None:
            b = int(rng.integers(3, 5))
            szs = [int(rng.integers(2, 5)) for _ in range(b)]
        else:
            szs = list(sizes)
        trt = list(treated) if treated is not None else [int(rng.integers(1, n)) for n in szs]
        design = BlockDesign.from_sizes(szs, trt)
        try:
            build_q1(design)
        except LeverageOne:
            if sizes is not None:
                raise
            continue
        r1 = tuple(rng.normal(loc=1.0, scale=2.0, size=n) for n in szs)
        r0 = tuple(rng.normal(size=n) for n in szs)
        return PotentialWorld(design=design, r1=r1, r0=r0)


def _enumeration_mean_and_variance(world: PotentialWorld) -> tuple[float, float]:
    w = block_weights(world.design)

    def delta(data):
        return estimate_ate(block_effects(world.design, data), w)

    moments = brute_force_expectations(world, {"d": delta, "d2": lambda data: delta(data) ** 2})
    return moments["d"], moments["d2"] - moments["d"] ** 2


def test_pair_world_hand_values():
    design = BlockDesign.from_sizes([2], [1])
    world = PotentialWorld(design=design, r1=(np.array([2.0, 0.0]),), r0=(np.zeros(2),))
    assert world.tau_bar == pytest.approx([1.0])
    assert world.sigma2_treated == pytest.approx([2.0])
    assert world.sigma2_control == pytest.approx([0.0])
    assert world.sigma2_tau == pytest.approx([2.0])
    # 2/1 + 0/1 - 2/2
    assert true_block_variance(world) == pytest.approx([1.0])
    assert true_ate_variance(world) == pytest.approx(1.0)
    assert sate(world) == pytest.approx(1.0)


def test_sate_weights_unequal_blocks_by_size():
    design = BlockDesign.from_sizes([2, 3], [1, 1])
    world = PotentialWorld(
        design=design,
        r1=(np.array([1.0, 1.0]), np.array([4.0, 4.0, 4.0])),
        r0=(np.zeros(2), np.zeros(3)),
    )
    assert sate(world) == pytest.approx((2 * 1.0 + 3 * 4.0) / 5)


def test_world_rejects_misshapen_schedules():
    design = BlockDesign.from_sizes([2, 2], [1, 1])
    with pytest.raises(DimensionMismatch):
        PotentialWorld(design=design, r1=(np.zeros(2),), r0=(np.zeros(2), np.zeros(2)))
    with pytest.raises(DimensionMismatch):
        PotentialWorld(
            design=design, r1=(np.zeros(3), np.zeros(2)), r0=(np.zeros(2), np.zeros(2))
        )


def test_observed_responses_reveal_one_arm_per_unit():
    world = _random_world(7)
    assignment = sample_assignment(world.design, seed=3)
    data = observed_responses(world, assignment)
    for zi, ri, r1, r0 in zip(assignment.z, data.responses, world.r1, world.r0):
        for j, z in enumerate(zi):
            assert ri[j] == (r1[j] if z else r0[j])


@pytest.mark.parametrize(
    "z, message",
    [
        # two pairs against blocks of 2 and 3 units
        (((1, 0), (0, 1)), "block '2': assignment has 2 units for n=3"),
        # the right unit count, split (3, 2) instead of (2, 3)
        (((1, 0, 0), (0, 1)), "block '1': assignment has 3 units for n=2"),
        (((1, 0),), "assignment covers 1 blocks, design has 2"),
    ],
    ids=["two pairs", "blocks of 3 and 2", "one block"],
)
def test_observed_responses_reject_an_assignment_of_other_blocks(z, message):
    design = BlockDesign.from_sizes([2, 3], [1, 1])
    world = PotentialWorld(
        design=design, r1=(np.ones(2), np.ones(3)), r0=(np.zeros(2), np.zeros(3))
    )
    with pytest.raises(DimensionMismatch) as caught:
        observed_responses(world, Assignment(z=z))
    assert str(caught.value) == message


def test_true_variance_matches_enumeration_on_random_worlds():
    for seed in range(5):
        world = _random_world(seed)
        mean, var = _enumeration_mean_and_variance(world)
        assert mean == pytest.approx(sate(world), rel=1e-12, abs=1e-12)
        assert var == pytest.approx(true_ate_variance(world), rel=1e-10, abs=1e-12)


def test_bias_identities_match_brute_force_projection_estimators():
    for seed in range(6):
        world = _random_world(100 + seed)
        design = world.design
        w = block_weights(design)
        q1 = build_q1(design)
        rng = np.random.default_rng(200 + seed)
        q2 = build_q2(design, xbar=rng.normal(size=design.n_blocks))
        stats = {
            "s1_q1": lambda data: var_s1(block_effects(design, data), w, q1),
            "s1_q2": lambda data: var_s1(block_effects(design, data), w, q2),
            "s2_q1": lambda data: var_s2(block_effects(design, data), w, q1),
            "s2_q2": lambda data: var_s2(block_effects(design, data), w, q2),
        }
        means = brute_force_expectations(world, stats)
        truth = true_ate_variance(world)
        expected = {
            "s1_q1": truth + expected_bias_s1(world, w, q1),
            "s1_q2": truth + expected_bias_s1(world, w, q2),
            "s2_q1": truth + expected_bias_s2(world, w, q1),
            "s2_q2": truth + expected_bias_s2(world, w, q2),
        }
        for name, value in means.items():
            assert value == pytest.approx(expected[name], rel=1e-9), (seed, name)


def test_paired_estimator_bias_equals_s1_gap_on_pairs():
    for seed in range(4):
        world = _random_world(300 + seed, sizes=[2] * 5, treated=[1] * 5)
        design = world.design
        w = block_weights(design)
        q1 = build_q1(design)
        mean = brute_force_expectation(
            world, lambda data: var_paired_classical(block_effects(design, data), w)
        )
        gap = mean - true_ate_variance(world)
        assert gap == pytest.approx(expected_bias_s1(world, w, q1), rel=1e-9, abs=1e-12)


def test_coarse_estimator_bias_matches_closed_form():
    for seed in range(3):
        world = _random_world(400 + seed, sizes=[4, 5, 6], treated=[2, 2, 3])
        design = world.design
        w = block_weights(design)
        mean = brute_force_expectation(
            world, lambda data: var_coarse_classical(block_effects(design, data), w)
        )
        expected = true_ate_variance(world) + expected_bias_scs(world, w)
        assert mean == pytest.approx(expected, rel=1e-9)


def test_s1_bias_is_zero_when_scaled_effects_fit_the_basis():
    design = BlockDesign.from_sizes([2] * 6, [1] * 6)
    q1 = build_q1(design)
    w = block_weights(design)
    # Constant effects lie in the span of q1's intercept column.
    world = PotentialWorld(
        design=design,
        r1=tuple(np.array([3.0, 5.0]) for _ in range(6)),
        r0=tuple(np.array([0.0, 2.0]) for _ in range(6)),
    )
    assert expected_bias_s1(world, w, q1) == pytest.approx(0.0, abs=1e-18)
    varying = PotentialWorld(
        design=design,
        r1=tuple(np.array([3.0 + i, 5.0]) for i in range(6)),
        r0=world.r0,
    )
    assert expected_bias_s1(varying, w, q1) > 1e-4


def test_cate_hand_values_and_block_variance():
    design = BlockDesign.from_sizes([2, 2], [1, 1])
    model = CateModel(
        design=design,
        f1=(np.array([2.0, 4.0]), np.array([1.0, 1.0])),
        f0=(np.zeros(2), np.zeros(2)),
        noise_cov=np.array([[4.0, 0.0], [0.0, 1.0]]),
    )
    assert cate(model) == pytest.approx((2 * 3.0 + 2 * 1.0) / 4)
    # Block 1: f-part 2/1 + 0/1 - 2/2 = 1, noise 4/1 + 1/1 = 5.
    # Block 2: f-part zero, noise 5.
    assert true_block_variance(model) == pytest.approx([6.0, 5.0])
    assert true_ate_variance(model) == pytest.approx((6.0 + 5.0) / 4)


def test_draw_world_is_deterministic_and_respects_shared_noise():
    design = BlockDesign.from_sizes([3, 2, 4], [1, 1, 2])
    rng = np.random.default_rng(11)
    f0 = tuple(rng.normal(size=n) for n in design.sizes)
    a_scale, b_scale = 1.7, 2.0
    model = CateModel(
        design=design,
        f1=tuple(a_scale * f for f in f0),
        f0=f0,
        noise_cov=np.array([[b_scale**2, b_scale], [b_scale, 1.0]]),
    )
    first = draw_world(model, seed=5)
    again = draw_world(model, seed=5)
    other = draw_world(model, seed=6)
    for x, y in zip(first.r1, again.r1):
        assert np.array_equal(x, y)
    assert any(not np.array_equal(x, y) for x, y in zip(first.r1, other.r1))
    # Rank-one noise covariance forces the treated-arm noise to be a fixed
    # multiple of the control-arm noise, unit by unit.
    for r1, r0, f in zip(first.r1, first.r0, f0):
        np.testing.assert_allclose(r1 - a_scale * f, b_scale * (r0 - f), atol=1e-10)


def _per_block_noise_model() -> CateModel:
    design = BlockDesign.from_sizes([2, 3], [1, 1])
    cov = np.array([[[1.0, 0.5], [0.5, 2.0]], [[4.0, 0.0], [0.0, 1.0]]])
    return CateModel(design, [np.zeros(2), np.ones(3)], [np.zeros(2), np.zeros(3)], cov)


def test_seeded_per_block_noise_stream_is_frozen():
    # recorded before the draw cores gained a replicate axis; one draw is unchanged
    world = draw_world(_per_block_noise_model(), seed=5)
    r1 = [
        -0.09321383497552306, 0.44335286296517673, 1.2194127986436163,
        -0.5695607106885567, 4.269566085917155,
    ]
    r0 = [
        -2.091009249928443, 0.4924491808021799, 1.1360465324896427,
        -0.5526473205362324, 0.7487457707345911,
    ]
    np.testing.assert_allclose(world._arms[0], r1, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(world._arms[1], r0, rtol=1e-12, atol=1e-15)


def test_draw_world_rejects_indefinite_noise_covariance():
    design = BlockDesign.from_sizes([2, 2], [1, 1])
    model = CateModel(
        design=design,
        f1=(np.zeros(2), np.zeros(2)),
        f0=(np.zeros(2), np.zeros(2)),
        noise_cov=np.array([[1.0, 2.0], [2.0, 1.0]]),
    )
    with pytest.raises(PreconditionViolated):
        draw_world(model, seed=0)


def test_draw_world_names_the_block_with_an_indefinite_noise_covariance():
    design = BlockDesign.from_sizes([2, 3, 2, 4, 2], [1, 2, 1, 2, 1])
    cov = np.array([[[1.0 + i, 0.5], [0.5, 2.0]] for i in range(5)])
    cov[2] = [[1.0, 2.0], [2.0, 1.0]]
    model = CateModel(
        design=design,
        f1=tuple(np.zeros(n) for n in design.sizes),
        f0=tuple(np.zeros(n) for n in design.sizes),
        noise_cov=cov,
    )
    with pytest.raises(PreconditionViolated, match="block 2 is not PSD"):
        draw_world(model, seed=0)


def test_noise_cov_shape_validation():
    design = BlockDesign.from_sizes([2, 2], [1, 1])
    with pytest.raises(DimensionMismatch):
        CateModel(
            design=design,
            f1=(np.zeros(2), np.zeros(2)),
            f0=(np.zeros(2), np.zeros(2)),
            noise_cov=np.eye(3),
        )
    per_block = np.stack([np.eye(2), 2.0 * np.eye(2)])
    model = CateModel(
        design=design,
        f1=(np.zeros(2), np.zeros(2)),
        f0=(np.zeros(2), np.zeros(2)),
        noise_cov=per_block,
    )
    assert model.noise_var_treated == pytest.approx([1.0, 2.0])
    assert model.noise_var_control == pytest.approx([1.0, 2.0])


def test_s3_bias_formula_guards_its_premises():
    pairs = BlockDesign.from_sizes([2] * 4, [1] * 4)
    w = block_weights(pairs)
    q1 = build_q1(pairs)
    flat = (np.zeros(2),) * 4
    world = PotentialWorld(design=pairs, r1=flat, r0=flat)
    with pytest.raises(PreconditionViolated):
        expected_bias_s3(world, w, q1)

    heteroskedastic = CateModel(
        design=pairs,
        f1=flat,
        f0=flat,
        noise_cov=np.stack([np.eye(2) * (1.0 + i) for i in range(4)]),
    )
    with pytest.raises(PreconditionViolated):
        expected_bias_s3(heteroskedastic, w, q1)

    unequal = _random_world(500, sizes=[2, 3, 4], treated=[1, 1, 2])
    model = CateModel(
        design=unequal.design,
        f1=unequal.r1,
        f0=unequal.r0,
        noise_cov=np.eye(2),
    )
    with pytest.raises(PreconditionViolated):
        expected_bias_s3(model, block_weights(unequal.design), build_q1(unequal.design))


def test_s3_bias_closed_form_on_valid_model():
    design = BlockDesign.from_sizes([2] * 4, [1] * 4)
    w = block_weights(design)
    q1 = build_q1(design)
    f_bar = np.array([1.0, 2.0, 4.0, 8.0])
    model = CateModel(
        design=design,
        f1=tuple(np.full(2, v) for v in f_bar),
        f0=(np.zeros(2),) * 4,
        noise_cov=np.eye(2),
    )
    resid = f_bar - f_bar.mean()
    by_hand = float(np.sum(resid**2 / (1.0 - 0.25))) / 16
    assert expected_bias_s3(model, w, q1) == pytest.approx(by_hand, rel=1e-12)
    constant = CateModel(
        design=design,
        f1=(np.full(2, 3.0),) * 4,
        f0=(np.zeros(2),) * 4,
        noise_cov=np.eye(2),
    )
    assert expected_bias_s3(constant, w, q1) == pytest.approx(0.0, abs=1e-18)


def test_cate_bias_formulas_agree_with_noise_monte_carlo():
    design = BlockDesign.from_sizes([4, 4], [2, 2])
    w = block_weights(design)
    q1 = build_q1(design)
    rng = np.random.default_rng(17)
    f0 = tuple(rng.normal(size=4) for _ in range(2))
    f1 = tuple(f + rng.normal(size=4) for f in f0)
    model = CateModel(
        design=design, f1=f1, f0=f0, noise_cov=np.array([[1.0, 0.6], [0.6, 0.8]])
    )

    def conditional_means(world):
        stats = {
            "s1": lambda data: var_s1(block_effects(design, data), w, q1),
            "cs": lambda data: var_coarse_classical(block_effects(design, data), w),
        }
        out = brute_force_expectations(world, stats)
        return out["s1"], out["cs"]

    draws = np.array([conditional_means(draw_world(model, seed=(23, i))) for i in range(300)])
    target = np.array(
        [
            true_ate_variance(model) + expected_bias_s1(model, w, q1),
            true_ate_variance(model) + expected_bias_scs(model, w),
        ]
    )
    mc_se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - target) < 4.0 * mc_se)


def test_brute_force_cap_guards_large_spaces():
    world = _random_world(900, sizes=[4] * 6, treated=[2] * 6)
    with pytest.raises(SpaceTooLarge):
        brute_force_expectation(world, lambda data: 0.0, cap=100)


def test_brute_force_cap_names_the_cap_for_twenty_thousand_pairs():
    # the space, 2^20000, has more digits than int-to-str conversion allows by default
    world = _random_world(900, sizes=[2] * 20_000, treated=[1] * 20_000)
    capped = r"^assignment space has more elements than the cap of \d+$"
    for run in (
        lambda: brute_force_expectation(world, lambda data: 0.0),
        lambda: brute_force_expectations(world, {"zero": lambda data: 0.0}, cap=100),
    ):
        with pytest.raises(SpaceTooLarge, match=capped):
            run()


def test_brute_force_visits_every_assignment_once():
    design = BlockDesign.from_sizes([2, 3], [1, 1])
    world = PotentialWorld(
        design=design, r1=(np.ones(2), np.ones(3)), r0=(np.zeros(2), np.zeros(3))
    )
    seen = []
    brute_force_expectation(world, lambda data: seen.append(data.assignment.z) or 0.0)
    expected = [a.z for a in enumerate_assignments(design)]
    assert seen == expected
    assert len(set(seen)) == 6


def test_limit_diagnostics_match_direct_recomputation():
    world = _random_world(700, sizes=[2] * 8, treated=[1] * 8)
    design = world.design
    rng = np.random.default_rng(701)
    xbar = rng.normal(size=design.n_blocks)
    assignment = sample_assignment(design, seed=702)
    diag = empirical_limit_diagnostics(world, xbar, assignment)

    w = block_weights(design)
    q1 = build_q1(design)
    q2 = build_q2(design, xbar=xbar)
    v = w * world.tau_bar
    quadform = float(v @ (q2.hat - q1.hat) @ v) / design.n_blocks
    effects = block_effects(design, observed_responses(world, assignment))
    gap = design.n_blocks * (var_s1(effects, w, q1) - var_s1(effects, w, q2))
    assert diag.beta_quadform == pytest.approx(quadform, rel=1e-12)
    assert diag.basis_gap == pytest.approx(gap, rel=1e-12)
    assert diag.beta_quadform >= 0.0


@pytest.mark.parametrize(
    "closed_form, schedule, error",
    [
        (lambda t, w, q: true_block_variance(t), False, TypeError),
        (lambda t, w, q: true_ate_variance(t), False, TypeError),
        (expected_bias_s1, False, TypeError),
        (expected_bias_s2, False, TypeError),
        (lambda t, w, q: expected_bias_scs(t, w), False, TypeError),
        (expected_bias_s3, True, PreconditionViolated),
    ],
    ids=["true_block_variance", "true_ate_variance", "s1", "s2", "scs", "s3"],
)
def test_closed_forms_check_the_type_of_the_truth(closed_form, schedule, error):
    # anything but a truth is a TypeError naming its type; s3 also refuses a schedule
    design = BlockDesign.from_sizes([2] * 4, [1] * 4)
    flat = (np.zeros(2),) * 4
    truth = PotentialWorld(design, flat, flat) if schedule else design
    match = "noise models only" if schedule else "got BlockDesign"
    with pytest.raises(error, match=match):
        closed_form(truth, block_weights(design), build_q1(design))
