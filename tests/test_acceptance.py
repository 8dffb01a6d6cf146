"""End-to-end acceptance checks, one verdict line per guarantee.

Each test certifies one advertised property of the package at a stated
tolerance and prints a single summary line so the test log doubles as a
report. Reference numbers are frozen: the deterministic study cells come
from the closed-form oracle, the Monte Carlo cells from the default study
configuration at its documented precision. Seeds are pinned throughout,
so every run reproduces the same verdicts.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from stratavar import (
    AssignmentAndOutcomes,
    BlockDesign,
    CateModel,
    PotentialWorld,
    block_effects,
    block_weights,
    brute_force_expectations,
    build_q1,
    build_q2,
    draw_world,
    empirical_limit_diagnostics,
    expected_bias_s1,
    expected_bias_s2,
    expected_bias_s3,
    expected_bias_scs,
    n_assignments,
    observed_responses,
    pairs_quartets_study,
    run_power_curve,
    run_table1,
    sample_assignment,
    true_ate_variance,
    var_coarse_classical,
    var_paired_classical,
    var_s1,
    var_s2,
    var_s3,
)
from stratavar.cli import main
from stratavar.errors import LeverageOne, TooManyColumns

CTW_FIXTURE = Path(__file__).resolve().parent / "data" / "ctw.csv"


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} — {detail}")
    assert ok, f"acceptance criterion {criterion}: {detail}"


def _rel(value: float, target: float) -> float:
    return abs(value - target) / max(abs(target), 1e-12)


# ---------------------------------------------------------------------------
# criteria 1 and 2: exhaustive expectations on randomized small worlds
# ---------------------------------------------------------------------------


def _random_world(rng: np.random.Generator, design: BlockDesign) -> PotentialWorld:
    r1 = []
    r0 = []
    for n in design.sizes:
        base = rng.normal(0.0, 2.0)
        effect = rng.normal(1.0, 2.0)
        r0.append(base + rng.normal(0.0, 1.0, int(n)))
        r1.append(base + effect + rng.normal(0.0, 1.5, int(n)))
    return PotentialWorld(design=design, r1=tuple(r1), r0=tuple(r0))


def _world_rows(label: str, world: PotentialWorld, rng: np.random.Generator) -> list[dict]:
    design = world.design
    w = block_weights(design)
    q1 = build_q1(design)
    truth = true_ate_variance(world)
    stats = {}
    expected = {}

    def add_projection(tag: str, q) -> None:
        stats[f"s1_{tag}"] = lambda d, q=q: var_s1(block_effects(design, d), w, q)
        stats[f"s2_{tag}"] = lambda d, q=q: var_s2(block_effects(design, d), w, q)
        expected[f"s1_{tag}"] = truth + expected_bias_s1(world, w, q)
        expected[f"s2_{tag}"] = truth + expected_bias_s2(world, w, q)

    add_projection("q1", q1)
    try:
        q2 = build_q2(design, xbar=rng.normal(size=(design.n_blocks, 1)))
        add_projection("q2", q2)
    except (TooManyColumns, LeverageOne):
        pass
    if label == "pairs":
        stats["paired"] = lambda d: var_paired_classical(block_effects(design, d), w)
        expected["paired"] = truth + expected_bias_s1(world, w, q1)
    if label == "coarse":
        stats["coarse"] = lambda d: var_coarse_classical(block_effects(design, d), w)
        expected["coarse"] = truth + expected_bias_scs(world, w)

    means = brute_force_expectations(world, stats)
    return [
        {"stat": name, "mean": means[name], "expected": expected[name], "truth": truth}
        for name in stats
    ]


@pytest.fixture(scope="module")
def oracle_sweep():
    start = time.monotonic()
    rng = np.random.default_rng(20240817)
    worlds = []
    for i in range(18):
        b = 4 + i % 3
        worlds.append(("pairs", BlockDesign.from_sizes([2] * b, [1] * b)))
    for i in range(18):
        b = 4 if i % 6 else 5
        worlds.append(("coarse", BlockDesign.from_sizes([4] * b, [2] * b)))
    mixed = 0
    while mixed < 18:
        b = int(rng.integers(3, 7))
        sizes = [int(s) for s in rng.integers(2, 5, size=b)]
        treated = [int(rng.integers(1, s)) for s in sizes]
        design = BlockDesign.from_sizes(sizes, treated)
        if n_assignments(design) > 5000:
            continue
        try:
            build_q1(design)
        except LeverageOne:
            continue
        worlds.append(("mixed", design))
        mixed += 1

    rows = []
    for label, design in worlds:
        world = _random_world(rng, design)
        rows.extend(_world_rows(label, world, rng))
    return {"rows": rows, "n_worlds": len(worlds), "elapsed": time.monotonic() - start}


def test_brute_force_expectations_match_closed_forms(oracle_sweep):
    rows = oracle_sweep["rows"]
    worst = max(_rel(row["mean"], row["expected"]) for row in rows)
    ok = (
        worst <= 1e-9
        and oracle_sweep["n_worlds"] >= 50
        and oracle_sweep["elapsed"] < 60.0
    )
    _verdict(
        1,
        ok,
        f"{len(rows)} exhaustive expectations on {oracle_sweep['n_worlds']} worlds "
        f"match truth plus closed-form bias, worst relative error {worst:.2e}, "
        f"elapsed {oracle_sweep['elapsed']:.1f}s",
    )


def test_brute_force_expectations_are_conservative(oracle_sweep):
    rows = oracle_sweep["rows"]
    violations = [
        row
        for row in rows
        if row["mean"] < row["truth"] - 1e-12 * max(1.0, abs(row["truth"]))
    ]
    slack = min(row["mean"] - row["truth"] for row in rows)
    ok = not violations
    _verdict(
        2,
        ok,
        f"all {len(rows)} expectations at or above the true variance "
        f"(smallest margin {slack:.2e}, violation floor 1e-12)",
    )


# ---------------------------------------------------------------------------
# criterion 3: s3 unbiasedness under its stated premises, trace identity
# ---------------------------------------------------------------------------


def test_s3_unbiasedness_and_trace_identity():
    b = 6
    design = BlockDesign.from_sizes([2] * b, [1] * b)
    rng = np.random.default_rng(93)
    xbar = np.linspace(0.0, 1.0, b) + rng.uniform(0.0, 0.1, b)
    level = rng.normal(0.0, 2.0, b)
    effect = 2.0 + 3.0 * xbar
    model = CateModel(
        design=design,
        f1=tuple(np.full(2, level[i] + effect[i]) for i in range(b)),
        f0=tuple(np.full(2, level[i]) for i in range(b)),
        noise_cov=np.array([[1.3, 0.4], [0.4, 0.9]]),
    )
    w = block_weights(design)
    q = build_q2(design, xbar=xbar[:, None])
    truth = true_ate_variance(model)
    assert expected_bias_s3(model, w, q) == pytest.approx(0.0, abs=1e-12)

    draws = 100_000
    vals = np.empty(draws)
    stream = np.random.default_rng(5150)
    for r in range(draws):
        world = draw_world(model, stream)
        data = observed_responses(world, sample_assignment(design, stream))
        vals[r] = var_s3(block_effects(design, data), w, q)
    mean = float(vals.mean())
    se = float(vals.std(ddof=1)) / math.sqrt(draws)
    unbiased_ok = abs(mean - truth) <= 3.0 * se

    probe = np.random.default_rng(64)
    worst_trace = 0.0
    checked = 0
    while checked < 20:
        nb = int(probe.integers(4, 13))
        sizes = [int(s) for s in probe.integers(2, 6, size=nb)]
        treated = [int(probe.integers(1, s)) for s in sizes]
        d2 = BlockDesign.from_sizes(sizes, treated)
        try:
            if checked % 2:
                q2 = build_q2(d2, xbar=probe.normal(size=(nb, 2)))
            else:
                q2 = build_q1(d2)
            psi_tilde = q2.psi_tilde
        except (LeverageOne, TooManyColumns):
            continue
        annihilator = np.eye(nb) - q2.hat
        trace = float(np.trace(annihilator @ np.diag(psi_tilde) @ annihilator))
        worst_trace = max(worst_trace, abs(trace - nb) / nb)
        checked += 1
    trace_ok = worst_trace <= 1e-9

    _verdict(
        3,
        unbiased_ok and trace_ok,
        f"mean s3 {mean:.5f} vs truth {truth:.5f} within 3 se ({3 * se:.5f}) over "
        f"{draws} noise draws; trace identity worst relative error {worst_trace:.2e} "
        f"on 20 random bases",
    )


# ---------------------------------------------------------------------------
# criterion 4: deterministic fixed-grid study against frozen references
# ---------------------------------------------------------------------------

PAIRS_QUARTETS_REFERENCE = {
    ("pairs", "none", "true_variance"): 5.00,
    ("pairs", "correct_linear", "s1"): 5.09,
    ("pairs", "correct_linear", "s2"): 5.26,
    ("pairs", "correct_linear", "s3"): 5.00,
    ("pairs", "incorrect_linear", "s1"): 7.12,
    ("pairs", "incorrect_linear", "s2"): 8.76,
    ("pairs", "incorrect_linear", "s3"): 8.25,
    ("pairs", "correct_cubic", "s1"): 5.52,
    ("pairs", "correct_cubic", "s2"): 5.59,
    ("pairs", "correct_cubic", "s3"): 5.00,
    ("pairs", "incorrect_cubic", "s1"): 7.23,
    ("pairs", "incorrect_cubic", "s2"): 6.06,
    ("pairs", "incorrect_cubic", "s3"): 5.24,
    ("quartets", "none", "true_variance"): 5.65,
    ("quartets", "none", "coarse"): 5.68,
}

PAIRED_REFERENCE_BIAS = 21.35
PAIRED_REFERENCE_EXPECTATION = 26.35


def _pairs_grid_model() -> CateModel:
    x = 0.25 * np.arange(1, 41, dtype=float)
    design = BlockDesign.from_sizes([2] * 40, [1] * 40)
    return CateModel(
        design=design,
        f1=tuple(np.full(2, 100.0 + 30.0 * xi) for xi in x),
        f0=tuple(np.full(2, 20.0 * xi) for xi in x),
        noise_cov=np.array([[100.0, 100.0], [100.0, 100.0]]),
    )


def test_fixed_grid_study_matches_reference():
    start = time.monotonic()
    rows = {
        (r["design"], r["covariate_spec"], r["estimator"]): r for r in pairs_quartets_study()
    }
    worst = max(
        abs(rows[key]["expected_value"] - ref) for key, ref in PAIRS_QUARTETS_REFERENCE.items()
    )
    cells_ok = worst <= 0.02

    # The reference grid quotes the paired estimator by its bias term alone;
    # its full expectation adds the true variance, so it is checked against a
    # direct Monte Carlo replay of the pairs model instead.
    paired = rows[("pairs", "none", "paired")]
    model = _pairs_grid_model()
    design = model.design
    w = block_weights(design)
    stream = np.random.default_rng(44)
    reps = 4000
    vals = np.empty(reps)
    for r in range(reps):
        world = draw_world(model, stream)
        data = observed_responses(world, sample_assignment(design, stream))
        vals[r] = var_paired_classical(block_effects(design, data), w)
    mc_mean = float(vals.mean())
    mc_se = float(vals.std(ddof=1)) / math.sqrt(reps)
    paired_ok = (
        abs(paired["bias_term"] - PAIRED_REFERENCE_BIAS) <= 0.02
        and abs(paired["expected_value"] - PAIRED_REFERENCE_EXPECTATION) <= 0.02
        and abs(mc_mean - paired["expected_value"]) <= 3.0 * mc_se
        and mc_mean - PAIRED_REFERENCE_BIAS > 3.0 * mc_se
    )
    elapsed = time.monotonic() - start
    _verdict(
        4,
        cells_ok and paired_ok and elapsed < 10.0,
        f"{len(PAIRS_QUARTETS_REFERENCE)} grid cells within 0.02 (worst {worst:.4f}); "
        f"paired estimator Monte Carlo mean {mc_mean:.2f} (se {mc_se:.2f}) confirms the "
        f"full expectation {paired['expected_value']:.2f}, not the quoted bias term "
        f"{PAIRED_REFERENCE_BIAS}; elapsed {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 5: Monte Carlo study of the nine projection cells
# ---------------------------------------------------------------------------

NONLINEAR_STUDY_REFERENCE = {
    ("s1", "none"): 0.437,
    ("s2", "none"): 0.447,
    ("s3", "none"): 0.437,
    ("s1", "correct"): 0.0460,
    ("s2", "correct"): 0.0474,
    ("s3", "correct"): 0.0443,
    ("s1", "incorrect"): 0.108,
    ("s2", "incorrect"): 0.126,
    ("s3", "incorrect"): 0.110,
}


def test_nonlinear_response_study_matches_reference():
    start = time.monotonic()
    result = run_table1(reps=10_000, seed=0, threads=1)
    cells = {(c["estimator"], c["qspec"]): c for c in result.cells}

    worst_ratio = 0.0
    cells_ok = True
    for key, ref in NONLINEAR_STUDY_REFERENCE.items():
        cell = cells[key]
        tol = max(3.0 * cell["mc_se"], 0.05 * ref)
        worst_ratio = max(worst_ratio, abs(cell["mean"] - ref) / tol)
        cells_ok = cells_ok and abs(cell["mean"] - ref) <= tol

    pate = result.targets["pate_variance"]["value"]
    pate_se = result.targets["pate_variance"]["mc_se"]
    under_ok = True
    none_ok = True
    for (est, qspec), cell in cells.items():
        combined = 3.0 * math.hypot(cell["mc_se"], pate_se)
        if qspec == "none":
            none_ok = none_ok and abs(cell["mean"] - pate) <= combined
        else:
            under_ok = under_ok and (pate - cell["mean"] > combined)
    elapsed = time.monotonic() - start

    _verdict(
        5,
        cells_ok and under_ok and none_ok and elapsed < 600.0,
        f"nine cells within max(3 mc se, 5%) of reference (worst at {worst_ratio:.2f} of "
        f"allowance); covariate cells undershoot the across-worlds variance {pate:.3f} by "
        f"more than 3 se while plain cells stay within 3 se; elapsed {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# criterion 6: permutation test size and power
# ---------------------------------------------------------------------------


def test_permutation_size_and_power():
    start = time.monotonic()
    rows = run_power_curve(
        a_grid=(1.0, 1.1, 1.5),
        reps=5000,
        max_draws=999,
        alpha=0.05,
        seed=0,
        threads=1,
    )
    by = {(row["a"], row["qspec"]): row for row in rows}

    size_ok = all(0.04 <= by[(1.0, q)]["rate"] <= 0.06 for q in ("correct", "incorrect"))
    mono_ok = all(
        by[(1.5, q)]["rate"] > by[(1.1, q)]["rate"] for q in ("correct", "incorrect")
    )
    top_c = by[(1.5, "correct")]
    top_i = by[(1.5, "incorrect")]
    order_ok = top_c["rate"] >= top_i["rate"] - 2.0 * math.hypot(top_c["mc_se"], top_i["mc_se"])
    elapsed = time.monotonic() - start

    sizes = ", ".join(f"{q} {by[(1.0, q)]['rate']:.4f}" for q in ("correct", "incorrect"))
    _verdict(
        6,
        size_ok and mono_ok and order_ok and elapsed < 900.0,
        f"null rejection rates ({sizes}) inside [0.04, 0.06]; power rises strictly from "
        f"a=1.1 to a=1.5 for both bases and the matched basis is no weaker at a=1.5 "
        f"({top_c['rate']:.3f} vs {top_i['rate']:.3f}); elapsed {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# criterion 7: exact algebraic identities on random inputs
# ---------------------------------------------------------------------------


def _hc3_intercept_variance(xmat: np.ndarray, y: np.ndarray) -> float:
    """Textbook HC3 sandwich, intercept diagonal entry."""
    xtx_inv = np.linalg.inv(xmat.T @ xmat)
    beta = xtx_inv @ (xmat.T @ y)
    resid = y - xmat @ beta
    h = np.einsum("ij,jk,ik->i", xmat, xtx_inv, xmat)
    omega = resid**2 / (1.0 - h) ** 2
    cov = xtx_inv @ (xmat.T * omega) @ xmat @ xtx_inv
    return float(cov[0, 0])


def _random_data(rng: np.random.Generator, design: BlockDesign) -> AssignmentAndOutcomes:
    return AssignmentAndOutcomes(
        assignment=sample_assignment(design, rng),
        responses=tuple(rng.normal(0.0, 1.5, int(n)) for n in design.sizes),
    )


def test_exact_estimator_identities():
    rng = np.random.default_rng(2468)
    trials = 1000
    pair_worst = 0.0
    hc3_worst = 0.0
    pair_checks = 0
    hc3_checks = 0
    ordering_violations = 0
    for _ in range(trials):
        nb = int(rng.integers(3, 9))
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, n))
        design = BlockDesign.from_sizes([n] * nb, [k] * nb)
        eff = block_effects(design, _random_data(rng, design))
        w = block_weights(design)
        q1 = build_q1(design)
        s1 = var_s1(eff, w, q1)
        s2 = var_s2(eff, w, q1)
        if s2 < s1 * (1.0 - 1e-12):
            ordering_violations += 1
        if n == 2:
            pair_worst = max(pair_worst, _rel(var_paired_classical(eff, w), s1))
            pair_checks += 1

        gb = int(rng.integers(6, 12))
        sizes = [int(s) for s in rng.integers(2, 6, size=gb)]
        treated = [int(rng.integers(1, s)) for s in sizes]
        gdesign = BlockDesign.from_sizes(sizes, treated)
        try:
            gq = build_q2(gdesign, xbar=rng.normal(size=(gb, 2)))
        except LeverageOne:
            continue
        geff = block_effects(gdesign, _random_data(rng, gdesign))
        gw = block_weights(gdesign)
        hc3 = _hc3_intercept_variance(gq.values, gw * geff.tau_hat)
        hc3_worst = max(hc3_worst, _rel(var_s2(geff, gw, gq), hc3))
        hc3_checks += 1

    ok = (
        pair_worst <= 1e-10
        and hc3_worst <= 1e-8
        and ordering_violations == 0
        and pair_checks >= 100
        and hc3_checks >= 500
    )
    _verdict(
        7,
        ok,
        f"s1 matches the paired estimator on {pair_checks} pair designs (worst "
        f"{pair_worst:.2e}); s2 matches the HC3 intercept variance on {hc3_checks} designs "
        f"(worst {hc3_worst:.2e}); s2 >= s1 held on all {trials} equal-size inputs",
    )


# ---------------------------------------------------------------------------
# criterion 8: the covariate-adjustment gap concentrates on its limit
# ---------------------------------------------------------------------------


def test_covariate_gap_concentrates_on_quadform():
    rng = np.random.default_rng(31)
    mean_devs = []
    for nb in (50, 200, 800):
        x = rng.uniform(0.0, 1.0, nb)
        design = BlockDesign.from_sizes([2] * nb, [1] * nb)
        tau = 2.0 + 4.0 * x
        r0 = tuple(rng.normal(0.0, 1.0, 2) for _ in range(nb))
        r1 = tuple(r0[i] + tau[i] for i in range(nb))
        world = PotentialWorld(design=design, r1=r1, r0=r0)
        devs = np.empty(200)
        for j in range(200):
            diag = empirical_limit_diagnostics(
                world, x[:, None], sample_assignment(design, rng)
            )
            devs[j] = abs(diag.basis_gap - diag.beta_quadform)
        mean_devs.append(float(devs.mean()))
    ok = mean_devs[0] > mean_devs[1] > mean_devs[2]
    summary = ", ".join(
        f"B={nb}: {dev:.4f}" for nb, dev in zip((50, 200, 800), mean_devs)
    )
    _verdict(
        8,
        ok,
        f"mean |gap - quadform| over 200 assignments decreases monotonically ({summary})",
    )


# ---------------------------------------------------------------------------
# criterion 9: reanalysis of a user-supplied experiment file
# ---------------------------------------------------------------------------


def test_supplied_experiment_reanalysis(capsys):
    if not CTW_FIXTURE.exists():
        message = (
            "reanalysis fixture tests/data/ctw.csv not present; supply the experiment "
            "file (block_id, unit_id, treated, response, x1) to run this check"
        )
        print(f"ACCEPTANCE 9: SKIP — {message}")
        pytest.skip(message)
    code = main(
        [
            "analyze",
            "--csv",
            str(CTW_FIXTURE),
            "--q-spec",
            "x1",
            "--poly",
            "2",
            "--estimators",
            "paired,s1,s2,s3",
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    ses = {name: math.sqrt(payload["estimates"][name]) for name in ("paired", "s1", "s2", "s3")}
    targets = {"paired": 4.6, "s1": 4.2, "s2": 4.34, "s3": 3.57}
    ok = abs(payload["delta_hat"] - 13.4) <= 0.05 and all(
        abs(ses[name] - value) <= 0.05 for name, value in targets.items()
    )
    listing = ", ".join(f"{name} {ses[name]:.2f}" for name in targets)
    _verdict(
        9,
        ok,
        f"estimate {payload['delta_hat']:.2f} with standard errors {listing} match the "
        f"reference reanalysis within 0.05",
    )
