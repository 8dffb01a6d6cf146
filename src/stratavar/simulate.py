"""Simulation studies over a nonlinear block-level response surface.

The generative world draws block-level covariates x_i ~ U(0,1)^10 and sets

    f(x) = 10 sin(pi x1 x2) + 20 (x3 - 1/2)^2 + 10 exp(x4) + 5 (x5 - 1/2)^3,

with unit responses r0 = f(x_i) + eps and r1 = a f(x_i) + b eps sharing one
noise draw per unit. At a = b = 1 the two arms coincide unit by unit, which
is the exact additivity null with zero effect. Designs mix triplets and
pairs: a ``triplet_fraction`` of blocks have three units (treated counts
alternating 1, 2, 1, 2, ...), the rest are pairs.

Studies:

* ``run_table1``: mean of each projection variance estimator across
  redrawn worlds, against the three variance targets (schedule-level,
  noise-model-level, and the across-worlds variance of the estimate).
* ``run_power_curve``: rejection rate of the heterogeneity permutation test
  along a grid of signal scales ``a``.
* ``pairs_quartets_study``: closed-form expectations for a deterministic
  two-design comparison on a fixed covariate grid.
* ``pate_demo``: shows covariate-adjusted estimators undershooting the
  across-worlds variance while staying conservative for the schedule-level
  target.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from ._util import as_rng, map_chunks
from .design import BlockDesign, block_weights, sample_assignment
from .errors import DimensionMismatch, InputError
from .estimators import _option_groups, _projection_variances, _sample_effects
from .hettest import permutation_test
from .oracle import (
    CateModel,
    _randomization_variance,
    draw_world,
    expected_bias_s1,
    expected_bias_s2,
    expected_bias_s3,
    expected_bias_scs,
    observed_responses,
    true_ate_variance,
)
from .projection import QMatrix, build_q1, build_q2

TABLE1_ESTIMATORS = ("s1", "s2", "s3")
TABLE1_QSPECS = ("none", "correct", "incorrect")
REP_CHUNK = 250


@dataclass(frozen=True)
class FriedmanConfig:
    """Knobs of the generative world.

    ``a`` scales the systematic component in the treated arm (1 = additive
    null together with b = 1); ``b`` scales the treated-arm noise.
    """

    n_blocks: int = 100
    a: float = 1.0
    b: float = 1.0
    n_covariates: int = 10
    triplet_fraction: float = 0.4


@dataclass(frozen=True)
class QSpec:
    """Which covariate basis a study hands to the projection estimators.

    kind "none" uses the intercept-and-weights basis alone; "correct" the
    four transforms that span f; "incorrect" the raw covariates; "custom"
    caller-supplied block-level columns.
    """

    kind: str
    columns: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("none", "correct", "incorrect", "custom"):
            raise DimensionMismatch(f"unknown q-spec kind {self.kind!r}")
        if self.kind == "custom" and self.columns is None:
            raise DimensionMismatch("custom q-spec needs columns")


def friedman_function(x: np.ndarray) -> np.ndarray:
    """The block-level response surface; x is (B, K>=5) in [0,1]."""
    return (
        10.0 * np.sin(np.pi * x[:, 0] * x[:, 1])
        + 20.0 * (x[:, 2] - 0.5) ** 2
        + 10.0 * np.exp(x[:, 3])
        + 5.0 * (x[:, 4] - 0.5) ** 3
    )


def correct_transforms(x: np.ndarray) -> np.ndarray:
    """The four covariate transforms whose span contains f."""
    return np.column_stack(
        [
            np.sin(np.pi * x[:, 0] * x[:, 1]),
            (x[:, 2] - 0.5) ** 2,
            np.exp(x[:, 3]),
            (x[:, 4] - 0.5) ** 3,
        ]
    )


def friedman_sizes(config: FriedmanConfig) -> tuple[list[int], list[int]]:
    """Block sizes and treated counts: triplets (1,2 alternating) then pairs."""
    b = config.n_blocks
    n_triplets = round(config.triplet_fraction * b)
    sizes = [3] * n_triplets + [2] * (b - n_triplets)
    treated = [1 if i % 2 == 0 else 2 for i in range(n_triplets)] + [1] * (b - n_triplets)
    return sizes, treated


def friedman_world(config: FriedmanConfig, seed) -> CateModel:
    """Draw covariates and return the noise model for one world.

    The returned model's design carries the (block-constant) unit covariates;
    realized schedules come from :func:`stratavar.oracle.draw_world`.
    """
    rng = as_rng(seed)
    sizes, treated = friedman_sizes(config)
    x = rng.random((config.n_blocks, config.n_covariates))
    f = friedman_function(x)
    covariates = [np.repeat(x[i][None, :], n, axis=0) for i, n in enumerate(sizes)]
    design = BlockDesign.from_sizes(sizes, treated, covariates=covariates)
    f1 = tuple(np.full(n, config.a * f[i]) for i, n in enumerate(sizes))
    f0 = tuple(np.full(n, f[i]) for i, n in enumerate(sizes))
    cov = np.array([[config.b**2, config.b], [config.b, 1.0]])
    return CateModel(design=design, f1=f1, f0=f0, noise_cov=cov)


def block_level_covariates(design: BlockDesign) -> np.ndarray:
    """First-unit covariate row per block (valid when covariates are block-constant)."""
    return np.vstack([np.asarray(blk.covariates)[0] for blk in design.blocks])


def resolve_qspec(spec: QSpec, design: BlockDesign, x: np.ndarray) -> QMatrix:
    """Materialize a q-spec into a basis for a given world's covariates."""
    if spec.kind == "none":
        return build_q1(design)
    if spec.kind == "correct":
        return build_q2(design, xbar=correct_transforms(x), poly_degree=1)
    if spec.kind == "incorrect":
        return build_q2(design, xbar=x, poly_degree=1)
    return build_q2(design, xbar=spec.columns, poly_degree=1)


# ---------------------------------------------------------------------------
# table 1: estimator means across redrawn worlds
# ---------------------------------------------------------------------------


def _sim_context(config: FriedmanConfig) -> dict:
    sizes, treated = friedman_sizes(config)
    design = BlockDesign.from_sizes(sizes, treated)
    return {
        "config": config,
        "design": design,
        "w": block_weights(design),
        "q1": build_q1(design),
        "order": np.concatenate([idx for _, _, idx, _ in design.size_groups]),
    }


def _table1_rep(rng: np.random.Generator, ctx: dict) -> tuple[np.ndarray, float, float]:
    """One world, one assignment: nine estimator cells, schedule variance, estimate."""
    config: FriedmanConfig = ctx["config"]
    design: BlockDesign = ctx["design"]
    w = ctx["w"]
    b = design.n_blocks

    x = rng.random((b, config.n_covariates))
    f = np.repeat(friedman_function(x), design.sizes)
    eps = rng.standard_normal(design.n_units)
    r1 = config.a * f + config.b * eps
    r0 = f + eps

    tau = np.empty(b)
    tau[ctx["order"]] = _sample_effects(rng, _option_groups(design, r1, r0), 1)[0]
    sate_var = float(np.sum(w**2 * _randomization_variance(design, r1, r0))) / b**2
    delta = float(w @ tau) / b

    qs = (  # in TABLE1_QSPECS order
        ctx["q1"],
        build_q2(design, xbar=correct_transforms(x), poly_degree=1),
        build_q2(design, xbar=x, poly_degree=1),
    )
    cells = np.array([_projection_variances(tau, w, q) for q in qs]).ravel()
    return cells, sate_var, delta


def _table1_chunk(args) -> tuple[np.ndarray, np.ndarray, float, float, np.ndarray, np.ndarray | None]:
    seed, rep_start, count, ctx, collect_raw = args
    sums = np.zeros(9)
    sumsq = np.zeros(9)
    sate_sum = 0.0
    sate_sumsq = 0.0
    deltas = np.empty(count)
    raw = np.empty((count, 11)) if collect_raw else None
    for j in range(count):
        rng = np.random.default_rng(np.random.SeedSequence([seed, rep_start + j]))
        cells, sate_var, delta = _table1_rep(rng, ctx)
        sums += cells
        sumsq += cells**2
        sate_sum += sate_var
        sate_sumsq += sate_var**2
        deltas[j] = delta
        if raw is not None:
            raw[j, :9] = cells
            raw[j, 9] = sate_var
            raw[j, 10] = delta
    return sums, sumsq, sate_sum, sate_sumsq, deltas, raw


TABLE1_RAW_COLUMNS = tuple(
    f"{est}_{qname}" for qname in TABLE1_QSPECS for est in TABLE1_ESTIMATORS
) + ("sate_variance", "delta_hat")


@dataclass
class Table1Result:
    config: FriedmanConfig
    reps: int
    cells: list[dict]
    targets: dict
    delta_mean: float
    raw: np.ndarray | None = None


def run_table1(
    config: FriedmanConfig | None = None,
    reps: int = 10_000,
    seed: int = 0,
    threads: int = 1,
    collect_raw: bool = False,
) -> Table1Result:
    """Monte Carlo means of the nine projection estimator cells plus targets.

    With ``collect_raw`` the result keeps the per-replicate values as well,
    one row per replicate with columns ``TABLE1_RAW_COLUMNS``. Raises
    InputError for fewer than two replicates, which leave the across-worlds
    variance undefined.
    """
    if reps < 2:
        raise InputError(f"reps must be at least 2, got {reps}")
    if config is None:
        config = FriedmanConfig(n_blocks=100, a=2.0, b=2.0)
    ctx = _sim_context(config)
    starts = list(range(0, reps, REP_CHUNK))
    args = [(seed, s, min(REP_CHUNK, reps - s), ctx, collect_raw) for s in starts]
    parts = map_chunks(_table1_chunk, args, threads)

    sums = np.sum([p[0] for p in parts], axis=0)
    sumsq = np.sum([p[1] for p in parts], axis=0)
    sate_sum = float(np.sum([p[2] for p in parts]))
    sate_sumsq = float(np.sum([p[3] for p in parts]))
    deltas = np.concatenate([p[4] for p in parts])
    raw = np.concatenate([p[5] for p in parts], axis=0) if collect_raw else None

    means = sums / reps
    ses = np.sqrt(np.maximum(sumsq / reps - means**2, 0.0) / reps)
    cells = []
    for j, qname in enumerate(TABLE1_QSPECS):
        for i, est in enumerate(TABLE1_ESTIMATORS):
            idx = 3 * j + i
            cells.append(
                {
                    "estimator": est,
                    "qspec": qname,
                    "mean": float(means[idx]),
                    "mc_se": float(ses[idx]),
                }
            )

    sate_mean = sate_sum / reps
    sate_se = math.sqrt(max(sate_sumsq / reps - sate_mean**2, 0.0) / reps)

    # the noise-model variance does not depend on the covariate draw
    model = friedman_world(config, seed=0)
    cate_var = true_ate_variance(model)

    dc = deltas - deltas.mean()
    m2 = float(np.mean(dc**2))
    m4 = float(np.mean(dc**4))
    pate_var = float(np.var(deltas, ddof=1))
    pate_se = math.sqrt(max(m4 - m2**2 * (reps - 3) / (reps - 1), 0.0) / reps)

    targets = {
        "sate_variance": {"value": sate_mean, "mc_se": sate_se},
        "cate_variance": {"value": float(cate_var), "mc_se": 0.0},
        "pate_variance": {"value": pate_var, "mc_se": pate_se},
    }
    return Table1Result(
        config=config,
        reps=reps,
        cells=cells,
        targets=targets,
        delta_mean=float(deltas.mean()),
        raw=raw,
    )


# ---------------------------------------------------------------------------
# power curve for the heterogeneity test
# ---------------------------------------------------------------------------

DEFAULT_A_GRID = (1.0, 1.1, 1.2, 1.3, 1.4, 1.5)


def _power_chunk(args) -> dict:
    seed, a_index, a, rep_start, count, config, qspecs, max_draws = args
    cfg = dataclasses.replace(config, a=a)
    pvals = {name: np.empty(count) for name in qspecs}
    for j in range(count):
        rng = np.random.default_rng(np.random.SeedSequence([seed, a_index, rep_start + j]))
        model = friedman_world(cfg, rng)
        design = model.design
        world = draw_world(model, rng)
        assignment = sample_assignment(design, rng)
        data = observed_responses(world, assignment)
        x = block_level_covariates(design)
        perm_seed = int(rng.integers(0, 2**62))
        for name in qspecs:
            q2 = resolve_qspec(QSpec(kind=name), design, x)
            res = permutation_test(design, data, q2, max_draws=max_draws, seed=perm_seed)
            pvals[name][j] = res.p_value
    return pvals


def run_power_curve(
    config: FriedmanConfig | None = None,
    a_grid=DEFAULT_A_GRID,
    reps: int = 1000,
    max_draws: int = 999,
    alpha: float = 0.05,
    seed: int = 0,
    threads: int = 1,
    qspecs=("correct", "incorrect"),
    collect_raw: bool = False,
) -> list[dict]:
    """Rejection rate of the permutation test along a signal-scale grid.

    The config's ``a`` is overridden by each grid value; defaults follow the
    twenty-block study (eight triplets, twelve pairs, unit noise). With
    ``collect_raw`` every row also carries the per-replicate p-values.
    Raises InputError for fewer than one replicate.
    """
    if reps < 1:
        raise InputError(f"reps must be at least 1, got {reps}")
    if config is None:
        config = FriedmanConfig(n_blocks=20, a=1.0, b=1.0)
    rows = []
    for a_index, a in enumerate(a_grid):
        starts = list(range(0, reps, REP_CHUNK))
        args = [
            (seed, a_index, float(a), s, min(REP_CHUNK, reps - s), config, tuple(qspecs), max_draws)
            for s in starts
        ]
        parts = map_chunks(_power_chunk, args, threads)
        for name in qspecs:
            pvals = np.concatenate([p[name] for p in parts])
            hits = int(np.sum(pvals <= alpha))
            rate = hits / reps
            row = {
                "a": float(a),
                "qspec": name,
                "reps": reps,
                "rejections": hits,
                "rate": rate,
                "mc_se": math.sqrt(max(rate * (1 - rate), 1e-12) / reps),
                "alpha": alpha,
                "max_draws": max_draws,
            }
            if collect_raw:
                row["p_values"] = [float(p) for p in pvals]
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# deterministic pairs/quartets comparison on a fixed covariate grid
# ---------------------------------------------------------------------------


def _grid_models() -> tuple[CateModel, CateModel, np.ndarray]:
    x = 0.25 * np.arange(1, 41, dtype=float)
    cov = np.array([[100.0, 100.0], [100.0, 100.0]])

    pair_design = BlockDesign.from_sizes(
        [2] * 40, [1] * 40, covariates=[np.full((2, 1), xi) for xi in x]
    )
    pairs = CateModel(
        design=pair_design,
        f1=tuple(np.full(2, 100.0 + 30.0 * xi) for xi in x),
        f0=tuple(np.full(2, 20.0 * xi) for xi in x),
        noise_cov=cov,
    )

    xq = x.reshape(20, 2)
    quartet_design = BlockDesign.from_sizes(
        [4] * 20,
        [2] * 20,
        covariates=[np.repeat(pair, 2)[:, None] for pair in xq],
    )
    quartets = CateModel(
        design=quartet_design,
        f1=tuple(100.0 + 30.0 * np.repeat(pair, 2) for pair in xq),
        f0=tuple(20.0 * np.repeat(pair, 2) for pair in xq),
        noise_cov=cov,
    )
    return pairs, quartets, x


PAIRS_QUARTETS_SPECS = (
    ("correct_linear", "x", 1),
    ("correct_cubic", "x", 3),
    ("incorrect_linear", "exp(x/3)", 1),
    ("incorrect_cubic", "exp(x/3)", 3),
)


def pairs_quartets_study() -> list[dict]:
    """Closed-form expected values for the fixed-grid comparison; deterministic.

    Pairs rows cover the paired classical estimator and the projection
    estimators under correct (x) and incorrect (exp(x/3)) covariates at
    linear and cubic degree; quartet rows cover the stratum-wise classical
    estimator. ``expected_value`` is truth plus bias; ``bias_term`` is the
    bias alone.
    """
    pairs, quartets, x = _grid_models()
    rows: list[dict] = []

    def add(design: str, spec: str, estimator: str, truth: float, bias: float) -> None:
        rows.append(
            {
                "design": design,
                "covariate_spec": spec,
                "estimator": estimator,
                "expected_value": truth + bias,
                "bias_term": bias,
            }
        )

    w_p = block_weights(pairs.design)
    var_p = true_ate_variance(pairs)
    add("pairs", "none", "true_variance", var_p, 0.0)
    add("pairs", "none", "paired", var_p, expected_bias_s1(pairs, w_p, build_q1(pairs.design)))
    for spec_name, col, degree in PAIRS_QUARTETS_SPECS:
        xb = x if col == "x" else np.exp(x / 3.0)
        q = build_q2(pairs.design, xbar=xb[:, None], poly_degree=degree)
        add("pairs", spec_name, "s1", var_p, expected_bias_s1(pairs, w_p, q))
        add("pairs", spec_name, "s2", var_p, expected_bias_s2(pairs, w_p, q))
        add("pairs", spec_name, "s3", var_p, expected_bias_s3(pairs, w_p, q))

    w_q = block_weights(quartets.design)
    var_q = true_ate_variance(quartets)
    add("quartets", "none", "true_variance", var_q, 0.0)
    add("quartets", "none", "coarse", var_q, expected_bias_scs(quartets, w_q))
    return rows


# ---------------------------------------------------------------------------
# across-worlds variance demo
# ---------------------------------------------------------------------------


def pate_demo(
    reps: int = 2000, seed: int = 0, threads: int = 1, config: FriedmanConfig | None = None
) -> dict:
    """Show s1 with covariates undershooting the across-worlds variance.

    When worlds are redrawn every replicate, the variance of the estimate
    includes the variance of the world-level effect itself; covariate-based
    estimators track the (smaller) within-world targets and are honest for
    those, but anticonservative for the across-worlds variance.
    """
    result = run_table1(config=config, reps=reps, seed=seed, threads=threads)
    pate = result.targets["pate_variance"]["value"]
    pate_se = result.targets["pate_variance"]["mc_se"]
    sate = result.targets["sate_variance"]["value"]
    sate_se = result.targets["sate_variance"]["mc_se"]
    out = {
        "reps": reps,
        "pate_variance": pate,
        "pate_mc_se": pate_se,
        "sate_variance_mean": sate,
        "sate_mc_se": sate_se,
        "cells": {},
        "anticonservative_for_pate": {},
        "conservative_for_sate": {},
    }
    for cell in result.cells:
        if cell["estimator"] != "s1":
            continue
        name = cell["qspec"]
        out["cells"][name] = {"mean": cell["mean"], "mc_se": cell["mc_se"]}
        out["anticonservative_for_pate"][name] = bool(
            cell["mean"] + 2 * cell["mc_se"] < pate - 2 * pate_se
        )
        out["conservative_for_sate"][name] = bool(
            cell["mean"] >= sate - 2 * (cell["mc_se"] + sate_se)
        )
    return out
