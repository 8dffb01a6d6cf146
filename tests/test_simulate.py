"""Simulation studies: world generation, estimator tables, power, demos."""
from __future__ import annotations

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate

from stratavar import (
    DimensionMismatch,
    FriedmanConfig,
    InputError,
    NumericalError,
    QSpec,
    TABLE1_RAW_COLUMNS,
    block_level_covariates,
    correct_transforms,
    draw_world,
    friedman_function,
    friedman_sizes,
    friedman_world,
    pairs_quartets_study,
    pate_demo,
    resolve_qspec,
    run_power_curve,
    run_table1,
)
from stratavar import simulate as simulate_module
from stratavar.simulate import BATCH_CELLS, REP_CHUNK


def test_friedman_sizes_split_and_alternating_treated():
    sizes, treated = friedman_sizes(FriedmanConfig(n_blocks=10))
    assert sizes == [3] * 4 + [2] * 6
    assert treated == [1, 2, 1, 2] + [1] * 6
    sizes, treated = friedman_sizes(FriedmanConfig(n_blocks=20, triplet_fraction=0.25))
    assert sizes == [3] * 5 + [2] * 15
    assert treated == [1, 2, 1, 2, 1] + [1] * 15


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_blocks", -5),
        ("n_blocks", 20.5),
        ("n_covariates", 4),
        ("n_covariates", 0),
        ("n_covariates", 6.5),
        ("triplet_fraction", -0.1),
        ("triplet_fraction", 1.5),
        ("triplet_fraction", float("nan")),
    ],
)
def test_friedman_config_names_a_value_the_world_cannot_use(field, value):
    # the counts size arrays, the surface reads x1..x5, and the triplets are a share of the blocks
    with pytest.raises(InputError, match=rf"^{field} must be .*, got {re.escape(str(value))}$"):
        FriedmanConfig(**{field: value})


def test_a_world_of_no_blocks_is_refused_where_it_is_built():
    # the config stays valid, so a study of no blocks still refuses it in its own words
    config = FriedmanConfig(n_blocks=0)
    with pytest.raises(InputError, match="^a world needs at least one block, got n_blocks = 0$"):
        friedman_world(config, seed=0)
    with pytest.raises(InputError, match="^a study of 0 blocks has no q1 basis: "):
        run_table1(config, reps=2)


def test_friedman_function_hand_value():
    x = np.full((1, 5), 0.5)
    expected = 10.0 * math.sin(math.pi * 0.25) + 10.0 * math.exp(0.5)
    assert friedman_function(x) == pytest.approx([expected], rel=1e-12)


def test_correct_transforms_span_the_surface():
    rng = np.random.default_rng(0)
    x = rng.random((50, 10))
    t = correct_transforms(x)
    assert t.shape == (50, 4)
    recombined = t @ np.array([10.0, 20.0, 10.0, 5.0])
    np.testing.assert_allclose(recombined, friedman_function(x), rtol=1e-12)


def test_additive_null_world_has_identical_arms():
    model = friedman_world(FriedmanConfig(n_blocks=12, a=1.0, b=1.0), seed=4)
    world = draw_world(model, seed=9)
    for r1, r0 in zip(world.r1, world.r0):
        np.testing.assert_allclose(r1, r0, atol=1e-10)


def test_friedman_world_covariates_are_block_constant():
    model = friedman_world(FriedmanConfig(n_blocks=15, a=1.3), seed=1)
    x = block_level_covariates(model.design)
    assert x.shape == (15, 10)
    for i, blk in enumerate(model.design.blocks):
        rows = np.asarray(blk.covariates)
        assert np.all(rows == x[i])
    f = friedman_function(x)
    for i, (f1, f0) in enumerate(zip(model.f1, model.f0)):
        assert f0 == pytest.approx(np.full(model.design.sizes[i], f[i]))
        assert f1 == pytest.approx(1.3 * f0)


def test_seeded_world_streams_are_frozen():
    # recorded before the draw cores gained a replicate axis; one world is unchanged
    model = friedman_world(FriedmanConfig(n_blocks=4, n_covariates=5, a=1.5, b=2.0), seed=3)
    x = [
        0.08564916714362436, 0.2368105065960997,
        0.8012744652063969, 0.5821620360643678,
        0.09412864224039919, 0.4331269402364738,
        0.479051298140834, 0.15973891463707857,
        0.7345771514092145, 0.11367201992140341,
        0.39122819049566204, 0.5167401826213637,
        0.4306280204141778, 0.5867985714381407,
        0.7378377872921602, 0.9562672548360985,
        0.28420116374879145, 0.648547207079825,
        0.6962159966701554, 0.2927207490124871,
    ]
    np.testing.assert_array_equal(block_level_covariates(model.design).ravel(), x)
    world = draw_world(model, seed=4)
    r1 = [
        30.374685756997202, 28.706955672681136, 30.035657700689512,
        43.11248781136718, 42.92620710411753, 40.25849879500831,
        35.09656767010407, 31.612202744051302, 39.7905192481966,
        43.75541599569716,
    ]
    r0 = [
        20.191551407222875, 19.357686365064843, 20.02203737906903,
        28.79120238199546, 28.698062028370636, 27.364207873816024,
        23.567894000635263, 21.82571153760888, 26.89428011740523,
        28.87672849115551,
    ]
    np.testing.assert_allclose(world._arms[0], r1, rtol=1e-12)
    np.testing.assert_allclose(world._arms[1], r0, rtol=1e-12)


def test_resolve_qspec_kinds():
    model = friedman_world(FriedmanConfig(n_blocks=20), seed=2)
    design = model.design
    x = block_level_covariates(design)
    q_none = resolve_qspec(QSpec(kind="none"), design, x)
    assert q_none.kind == "q1"
    q_correct = resolve_qspec(QSpec(kind="correct"), design, x)
    assert q_correct.added_covariate_rank == 4
    q_incorrect = resolve_qspec(QSpec(kind="incorrect"), design, x)
    assert q_incorrect.added_covariate_rank == 10
    q_custom = resolve_qspec(QSpec(kind="custom", columns=x[:, :2]), design, x)
    assert q_custom.added_covariate_rank == 2
    with pytest.raises(DimensionMismatch):
        QSpec(kind="sideways")
    with pytest.raises(DimensionMismatch):
        QSpec(kind="custom")


def test_run_table1_is_deterministic_and_thread_invariant():
    config = FriedmanConfig(n_blocks=30, a=2.0, b=2.0)
    first = run_table1(config=config, reps=60, seed=3)
    second = run_table1(config=config, reps=60, seed=3)
    threaded = run_table1(config=config, reps=60, seed=3, threads=2)
    assert first.cells == second.cells == threaded.cells
    assert first.delta_mean == second.delta_mean == threaded.delta_mean
    assert first.targets == threaded.targets
    other = run_table1(config=config, reps=60, seed=4)
    assert other.cells != first.cells


def test_run_table1_raw_rows_reproduce_the_summaries():
    config = FriedmanConfig(n_blocks=25, a=1.5, b=1.0)
    result = run_table1(config=config, reps=40, seed=7, collect_raw=True)
    assert len(TABLE1_RAW_COLUMNS) == 11
    assert TABLE1_RAW_COLUMNS[0] == "s1_none"
    assert TABLE1_RAW_COLUMNS[-2:] == ("sate_variance", "delta_hat")
    assert result.raw.shape == (40, 11)
    for idx, cell in enumerate(result.cells):
        column = TABLE1_RAW_COLUMNS.index(f"{cell['estimator']}_{cell['qspec']}")
        assert cell["mean"] == pytest.approx(result.raw[:, column].mean(), rel=1e-12)
        assert idx == column
    assert result.targets["sate_variance"]["value"] == pytest.approx(
        result.raw[:, 9].mean(), rel=1e-12
    )
    assert result.targets["pate_variance"]["value"] == pytest.approx(
        float(np.var(result.raw[:, 10], ddof=1)), rel=1e-12
    )
    assert result.delta_mean == pytest.approx(result.raw[:, 10].mean(), rel=1e-12)
    plain = run_table1(config=config, reps=40, seed=7)
    assert plain.raw is None
    assert plain.cells == result.cells


def test_run_table1_estimate_tracks_the_population_effect():
    sin_integral, _ = integrate.dblquad(
        lambda u, v: math.sin(math.pi * u * v), 0, 1, 0, 1
    )
    surface_mean = 10.0 * sin_integral + 20.0 / 12.0 + 10.0 * (math.e - 1.0)
    config = FriedmanConfig(n_blocks=100, a=2.0, b=2.0)
    result = run_table1(config=config, reps=400, seed=11)
    expected = (config.a - 1.0) * surface_mean
    se = math.sqrt(result.targets["pate_variance"]["value"] / 400)
    assert abs(result.delta_mean - expected) < 5.0 * se
    assert result.targets["cate_variance"]["mc_se"] == 0.0
    assert result.targets["cate_variance"]["value"] > 0.0


def test_run_power_curve_shapes_size_and_power():
    rows = run_power_curve(
        a_grid=(1.0, 1.5), reps=60, max_draws=199, seed=2, threads=1
    )
    assert len(rows) == 4
    assert [(r["a"], r["qspec"]) for r in rows] == [
        (1.0, "correct"),
        (1.0, "incorrect"),
        (1.5, "correct"),
        (1.5, "incorrect"),
    ]
    by_key = {(r["a"], r["qspec"]): r for r in rows}
    for r in rows:
        assert r["reps"] == 60
        assert r["rejections"] == round(r["rate"] * 60)
        assert r["alpha"] == 0.05
        assert r["max_draws"] == 199
        assert 0.0 <= r["rate"] <= 1.0
    assert by_key[(1.0, "correct")]["rate"] <= 0.25
    assert by_key[(1.0, "incorrect")]["rate"] <= 0.25
    assert by_key[(1.5, "correct")]["rate"] >= 0.6
    assert by_key[(1.5, "incorrect")]["rate"] >= 0.6

    again = run_power_curve(a_grid=(1.0, 1.5), reps=60, max_draws=199, seed=2)
    assert [r["rate"] for r in again] == [r["rate"] for r in rows]


def test_run_power_curve_collects_p_values():
    rows = run_power_curve(
        a_grid=(1.2,), reps=30, max_draws=99, seed=5, collect_raw=True
    )
    for row in rows:
        pvals = np.array(row["p_values"])
        assert pvals.shape == (30,)
        assert np.all((pvals > 0) & (pvals <= 1))
        assert row["rejections"] == int(np.sum(pvals <= row["alpha"]))


@pytest.mark.parametrize("qspecs", [("none",), ("correct", "none"), ()])
def test_power_refuses_a_spec_without_covariate_columns_before_any_draw(monkeypatch, qspecs):
    def no_draws(*args):
        raise AssertionError("a world was drawn")

    monkeypatch.setattr(simulate_module, "_draw_replicates", no_draws)
    with pytest.raises(InputError, match=r"^power needs q-specs, each with covariate columns, got "):
        run_power_curve(a_grid=(1.2,), reps=2, qspecs=qspecs)


def test_pairs_quartets_cells_are_frozen():
    expected = {
        ("pairs", "none", "true_variance"): (5.0, 0.0),
        ("pairs", "none", "paired"): (26.3541666667, 21.3541666667),
        ("pairs", "correct_linear", "s1"): (5.0876965515, 0.0876965515),
        ("pairs", "correct_linear", "s2"): (5.2661151926, 0.2661151926),
        ("pairs", "correct_linear", "s3"): (5.0, 0.0),
        ("pairs", "correct_cubic", "s1"): (5.5177140982, 0.5177140982),
        ("pairs", "correct_cubic", "s2"): (5.5930818176, 0.5930818176),
        ("pairs", "correct_cubic", "s3"): (5.0, 0.0),
        ("pairs", "incorrect_linear", "s1"): (7.1228379410, 2.1228379410),
        ("pairs", "incorrect_linear", "s2"): (8.7636700344, 3.7636700344),
        ("pairs", "incorrect_linear", "s3"): (8.2566635005, 3.2566635005),
        ("pairs", "incorrect_cubic", "s1"): (7.2390013332, 2.2390013332),
        ("pairs", "incorrect_cubic", "s2"): (6.0574995349, 1.0574995349),
        ("pairs", "incorrect_cubic", "s3"): (5.2398057791, 0.2398057791),
        ("quartets", "none", "true_variance"): (5.6510416667, 0.0),
        ("quartets", "none", "coarse"): (5.6770833333, 0.0260416667),
    }
    rows = pairs_quartets_study()
    assert len(rows) == len(expected)
    for row in rows:
        key = (row["design"], row["covariate_spec"], row["estimator"])
        value, bias = expected[key]
        assert row["expected_value"] == pytest.approx(value, abs=5e-10), key
        assert row["bias_term"] == pytest.approx(bias, abs=5e-10), key
    # A few cells are exact fractions by hand: the paired estimator's pull
    # above the truth is 1025/48 and the quartet study's is 5/192.
    by_key = {(r["design"], r["covariate_spec"], r["estimator"]): r for r in rows}
    assert by_key[("pairs", "none", "paired")]["bias_term"] == pytest.approx(
        1025.0 / 48.0, rel=1e-12
    )
    assert by_key[("quartets", "none", "coarse")]["bias_term"] == pytest.approx(
        5.0 / 192.0, rel=1e-12
    )
    assert by_key[("quartets", "none", "true_variance")]["expected_value"] == pytest.approx(
        1085.0 / 192.0, rel=1e-12
    )


def test_pate_demo_flags_covariate_estimators_only():
    out = pate_demo(reps=400, seed=0)
    assert set(out["cells"]) == {"none", "correct", "incorrect"}
    assert out["anticonservative_for_pate"]["correct"] is True
    assert out["anticonservative_for_pate"]["incorrect"] is True
    assert out["anticonservative_for_pate"]["none"] is False
    for name in ("none", "correct", "incorrect"):
        assert out["conservative_for_sate"][name] is True
    assert out["pate_variance"] > out["cells"]["correct"]["mean"]
    assert out["reps"] == 400


def test_power_grid_runs_as_one_map_of_chunks_in_row_order(monkeypatch):
    # every (grid value, chunk) pair goes to one map_chunks call, so a run
    # on several workers starts one pool; rows still follow the grid
    calls, real = [], simulate_module.map_chunks

    def recorded(fn, args, threads=1):
        calls.append((args, real(fn, args, threads)))
        return calls[-1][1]

    monkeypatch.setattr(simulate_module, "map_chunks", recorded)
    grid, reps = (1.5, 1.0, 1.2), REP_CHUNK + 2
    rows = run_power_curve(a_grid=grid, reps=reps, max_draws=19, seed=4, collect_raw=True)
    assert len(calls) == 1
    args, parts = calls[0]
    assert [(a[1], a[2], a[3]) for a in args] == [
        (i, a, s) for i, a in enumerate(grid) for s in range(0, reps, REP_CHUNK)
    ]
    assert [(row["a"], row["qspec"]) for row in rows] == [
        (a, name) for a in grid for name in ("correct", "incorrect")
    ]
    for row in rows:
        mine = [p[row["qspec"]] for a, p in zip(args, parts) if a[2] == row["a"]]
        assert row["p_values"] == np.concatenate(mine).tolist()


def test_run_power_curve_is_thread_invariant():
    kwargs = dict(a_grid=(1.0, 1.3), reps=260, max_draws=99, seed=8, collect_raw=True)
    assert run_power_curve(threads=1, **kwargs) == run_power_curve(threads=2, **kwargs)


@pytest.mark.parametrize("threads", [1, 2])
def test_table1_stream_is_anchored_at_chunks(threads):
    # the first chunk is whole in both runs, so its rows are the same bits
    config = FriedmanConfig(n_blocks=100, a=2.0, b=2.0)
    short = run_table1(config=config, reps=REP_CHUNK + 1, seed=6, threads=threads, collect_raw=True)
    long = run_table1(config=config, reps=300, seed=6, threads=threads, collect_raw=True)
    assert np.array_equal(short.raw[:REP_CHUNK], long.raw[:REP_CHUNK])


@pytest.mark.parametrize("threads", [1, 2])
def test_power_stream_is_anchored_at_chunks(threads):
    kwargs = dict(
        config=FriedmanConfig(n_blocks=20), a_grid=(1.0, 1.3), max_draws=49, seed=6,
        threads=threads, collect_raw=True,
    )
    short = run_power_curve(reps=REP_CHUNK + 1, **kwargs)
    long = run_power_curve(reps=260, **kwargs)
    for s_row, l_row in zip(short, long):
        assert (s_row["a"], s_row["qspec"]) == (l_row["a"], l_row["qspec"])
        assert s_row["p_values"][:REP_CHUNK] == l_row["p_values"][:REP_CHUNK]


@pytest.mark.parametrize(
    "study",
    [
        lambda: run_table1(reps=250, seed=1),
        lambda: run_power_curve(a_grid=(1.2,), reps=250, seed=1),
        # the replays come in pieces, so their memory does not grow with max_draws
        lambda: run_power_curve(a_grid=(1.2,), reps=3, max_draws=100_000, seed=1),
    ],
    ids=["table1", "power", "power-many-draws"],
)
def test_study_chunks_stay_within_the_cell_budget(study):
    study()  # first-call set-up (imports, caches) is not a chunk's
    tracemalloc.start()
    try:
        study()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a sub-batch keeps about ten float temporaries of at most BATCH_CELLS cells
    # alive; one 250-replicate chunk at once would need several times this
    bound = 16 * 8 * BATCH_CELLS
    assert peak < bound, f"peak traced memory {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize(
    "study",
    [
        lambda: run_power_curve(a_grid=(1e160,), reps=3, max_draws=99),
        lambda: run_table1(FriedmanConfig(a=1e160, b=2.0), reps=3),
    ],
    ids=["power", "table1"],
)
def test_overflowing_studies_raise_without_a_runtime_warning(study):
    # the sub-batch statistics overflow quietly; the study's own checks raise
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="overflow"):
            study()
