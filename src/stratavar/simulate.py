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

Table 1 and the power curve split their replicates into chunks of
``REP_CHUNK``, the unit of work a worker process takes, and compute each
chunk as arrays over its replicates. Chunk c draws from one stream,
``chunk_rng(seed, c)`` (power: ``chunk_rng(seed, a_index, c)``). Each of
its sub-batches, whose temporaries hold at most ``BATCH_CELLS`` cells,
draws its replicates by one draw shared by both studies: covariates, one
unit noise, and one uniform assignment per world, through the draw cores
of ``friedman_world`` and ``sample_assignment``; the block effects come
from the kernel of ``block_effects``. Table 1 reads the schedule variance
off the arms and its estimators off the effects. Power then draws and
scores the replays of all the sub-batch's replicates against every
q-spec's basis at once (``hettest._batch_hits``), and last one seed per
replicate. Seeded results do not depend on the worker count. A replicate
whose basis any check of ``build_q2`` flags, or whose responses are not
finite (in power: or could overflow the replays), takes the scalar path
(``block_effects``, ``build_q2``, ``permutation_test`` with its seed) in
replicate order, so values, warnings and the first error are those of
the one-replicate loop. So does every power replicate when the space is
small enough to enumerate. Both studies reject a seed that is not a
non-negative integer and a block count whose bases no world could have,
and power an ``alpha`` outside (0, 1) or a ``max_draws`` that
``permutation_test`` would reject, before they start; table 1 raises
NumericalError when a summary overflows the float range.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import _check_seed, as_rng, chunk_rng, map_chunks
from .design import (
    AssignmentAndOutcomes,
    BlockDesign,
    _draw_treated,
    block_weights,
    n_assignments,
)
from .errors import DimensionMismatch, InputError, InsufficientBlocks, LeverageOne, NumericalError
from .estimators import _arm_means, _option_groups, _projection_variances, block_effects
from .hettest import (
    OPTION_CELLS,
    _batch_hits,
    _check_max_draws,
    _f_values,
    _replay_threshold,
    _squares_fit,
    permutation_test,
)
from .oracle import (
    CateModel,
    _randomization_variance,
    _revealed,
    expected_bias_s1,
    expected_bias_s2,
    expected_bias_s3,
    expected_bias_scs,
    true_ate_variance,
)
from .projection import QMatrix, _psi_weights, build_q1, build_q2, q2_stack

TABLE1_ESTIMATORS = ("s1", "s2", "s3")
TABLE1_QSPECS = ("none", "correct", "incorrect")
REP_CHUNK = 250
BATCH_CELLS = 1 << 14  # float cells in one temporary of a replicate sub-batch


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


def correct_transforms(x: np.ndarray) -> np.ndarray:
    """The four covariate transforms whose span contains f, as (..., B, 4)."""
    return np.stack(
        [
            np.sin(np.pi * x[..., 0] * x[..., 1]),
            (x[..., 2] - 0.5) ** 2,
            np.exp(x[..., 3]),
            (x[..., 4] - 0.5) ** 3,
        ],
        axis=-1,
    )


def friedman_function(x: np.ndarray) -> np.ndarray:
    """The block-level response surface; x is (..., B, K>=5) in [0,1]."""
    return _surface(correct_transforms(x))


def _surface(t: np.ndarray) -> np.ndarray:
    """f from its (..., B, 4) ``correct_transforms``."""
    return 10.0 * t[..., 0] + 20.0 * t[..., 1] + 10.0 * t[..., 2] + 5.0 * t[..., 3]


def friedman_sizes(config: FriedmanConfig) -> tuple[list[int], list[int]]:
    """Block sizes and treated counts: triplets (1,2 alternating) then pairs."""
    b = config.n_blocks
    n_triplets = round(config.triplet_fraction * b)
    sizes = [3] * n_triplets + [2] * (b - n_triplets)
    treated = [1 if i % 2 == 0 else 2 for i in range(n_triplets)] + [1] * (b - n_triplets)
    return sizes, treated


def _draw_covariates(config: FriedmanConfig, rng, reps: int) -> np.ndarray:
    """(reps, B, K) block covariates x_i ~ U(0,1)^K: each world's first draw."""
    return rng.random((reps, config.n_blocks, config.n_covariates))


def friedman_world(config: FriedmanConfig, seed) -> CateModel:
    """Draw covariates and return the noise model for one world.

    The returned model's design carries the (block-constant) unit covariates;
    realized schedules come from :func:`stratavar.oracle.draw_world`.
    """
    sizes, treated = friedman_sizes(config)
    x = _draw_covariates(config, as_rng(seed), 1)[0]
    f = friedman_function(x)
    sizes = np.array(sizes, dtype=np.int64)
    ids = [str(i + 1) for i in range(len(sizes))]
    covariates = np.repeat(x, sizes, axis=0)
    design = BlockDesign._from_arrays(ids, sizes, np.array(treated, dtype=np.int64), covariates)
    cov = np.array([[config.b * config.b, config.b], [config.b, 1.0]])  # inf, not OverflowError
    return CateModel._from_flat(design, np.repeat(config.a * f, sizes), np.repeat(f, sizes), cov)


def block_level_covariates(design: BlockDesign) -> np.ndarray:
    """First-unit covariate row per block (valid when covariates are block-constant)."""
    return design.covariates[design.unit_starts]


def _qspec_xbar(spec: QSpec, x: np.ndarray, transforms=None) -> np.ndarray | None:
    """Block-level covariate columns of a q-spec for (..., B, K) covariates; None for "none".
    ``transforms``, if given, are x's ``correct_transforms``."""
    if spec.kind == "none":
        return None
    if spec.kind == "correct":
        return correct_transforms(x) if transforms is None else transforms
    if spec.kind == "incorrect":
        return x
    return spec.columns


def resolve_qspec(spec: QSpec, design: BlockDesign, x: np.ndarray) -> QMatrix:
    """Materialize a q-spec into a basis for a given world's covariates."""
    xbar = _qspec_xbar(spec, x)
    if xbar is None:
        return build_q1(design)
    return build_q2(design, xbar=xbar, poly_degree=1)


# ---------------------------------------------------------------------------
# batched replicates, shared by table 1 and the power curve
# ---------------------------------------------------------------------------


def _sim_context(config: FriedmanConfig, qspecs=()) -> dict:
    """The design of a study's worlds, with its weights and q1 basis; built once per run.

    Raises InputError when no world could have the bases of the q-specs
    named in ``qspecs``: q1 fails, a q1 leverage is one, or q1 and the
    widest q-spec's covariate columns leave no residual degree of freedom.
    """
    sizes, treated = friedman_sizes(config)
    design = BlockDesign.from_sizes(sizes, treated)
    b = design.n_blocks
    try:
        q1 = build_q1(design)
        q1.psi  # raises LeverageOne
    except (InsufficientBlocks, LeverageOne) as exc:
        raise InputError(f"a study of {b} blocks has no q1 basis: {exc}") from None
    x = np.zeros((1, config.n_covariates))
    widths = [xbar.shape[-1] for n in qspecs if (xbar := _qspec_xbar(QSpec(n), x)) is not None]
    if b <= q1.rank + max(widths, default=0):
        cols = f"q1 rank {q1.rank} plus {max(widths)} covariate columns"
        raise InputError(f"a study of {b} blocks leaves no residual degree of freedom: {cols}")
    return {"config": config, "design": design, "w": block_weights(design), "q1": q1}


def _sub_batches(start: int, count: int, cells_per_rep: int) -> list[tuple[int, int]]:
    """(first replicate, size) runs covering a chunk, each within BATCH_CELLS."""
    size = max(1, BATCH_CELLS // cells_per_rep)
    return [(s, min(size, start + count - s)) for s in range(start, start + count, size)]


def _draw_replicates(ctx: dict, rng, reps: int, a: float) -> tuple:
    """``reps`` worlds at signal scale ``a``, each revealed under one uniform assignment.

    Draws x as (R, B, K), one unit noise eps as (R, N) and the (R, N)
    treated flags z, in that order; r1 = a f + b eps and r0 = f + eps share
    eps. Returns x, its (R, B, 4) ``correct_transforms`` t, r1, r0, z, the
    revealed r and the (R, B) effects tau = m1 - m0 (``block_effects``' kernel).
    """
    config, design = ctx["config"], ctx["design"]
    x = _draw_covariates(config, rng, reps)
    eps = rng.standard_normal((reps, design.n_units))
    z = _draw_treated(design, rng, reps)
    t = correct_transforms(x)
    f = np.repeat(_surface(t), design.sizes, axis=-1)
    r1, r0 = a * f + config.b * eps, f + eps
    r = _revealed(z, r1, r0)
    m1, m0 = _arm_means(design, z, r)
    return x, t, r1, r0, z, r, m1 - m0


# ---------------------------------------------------------------------------
# table 1: estimator means across redrawn worlds
# ---------------------------------------------------------------------------


def _table1_chunk(args) -> np.ndarray:
    """Rows of ``TABLE1_RAW_COLUMNS`` for ``count`` replicates from ``rep_start``.

    The chunk draws from ``chunk_rng(seed, chunk)``. Each sub-batch draws
    its worlds and assignments by :func:`_draw_replicates`; the schedule
    variance comes from r1/r0, the estimate and the estimators from tau
    on each q-spec's ``q2_stack``, all as arrays over the sub-batch. A
    replicate with a non-finite response raises NonFiniteResponse, and one
    whose row of a stack is not ok takes ``resolve_qspec``, in replicate order.
    """
    seed, rep_start, count, ctx = args
    rng = chunk_rng(seed, rep_start // REP_CHUNK)
    config: FriedmanConfig = ctx["config"]
    design: BlockDesign = ctx["design"]
    w, q1 = ctx["w"], ctx["q1"]
    b, k = design.n_blocks, config.n_covariates
    specs = [QSpec(kind=name) for name in TABLE1_QSPECS[1:]]
    rows = np.empty((count, len(TABLE1_RAW_COLUMNS)))
    for start, size in _sub_batches(rep_start, count, b * (k + q1.rank)):
        x, t, r1, r0, z, r, tau = _draw_replicates(ctx, rng, size, config.a)
        out = rows[start - rep_start : start - rep_start + size]
        # each spec's (basis, leverages, ok); its M is not kept through the sub-batch
        stacks = [q2_stack(q1, w[:, None] * _qspec_xbar(spec, x, t))[-3:] for spec in specs]
        with np.errstate(over="ignore", invalid="ignore"):  # run_table1 checks the summaries
            out[:, 9] = np.sum(w**2 * _randomization_variance(design, r1, r0), axis=-1) / b**2
            out[:, 10] = tau @ w / b
            out[:, :3] = _projection_variances(tau, w, q1.basis, q1.psi, q1.psi_tilde)
            for i, (basis, lev, ok) in enumerate(stacks, start=1):
                if basis is not None:
                    psi = _psi_weights(1.0 - lev[ok])
                    out[ok, 3 * i : 3 * i + 3] = _projection_variances(tau[ok], w, basis[ok], *psi)
        # failing replicates in replicate order, so the first of them raises
        finite = np.isfinite(r).all(axis=-1)
        flagged = ~np.logical_and.reduce([ok for *_, ok in stacks])
        for j in np.flatnonzero(flagged | ~finite):
            if not finite[j]:  # block_effects raises NonFiniteResponse, naming the block
                data = AssignmentAndOutcomes._from_flat(z[j].astype(np.int64), r[j], design.sizes)
                block_effects(design, data)
            for i, (spec, (*_, ok)) in enumerate(zip(specs, stacks), start=1):
                if not ok[j]:
                    q = resolve_qspec(spec, design, x[j])
                    cells = _projection_variances(tau[j], w, q.basis, q.psi, q.psi_tilde)
                    out[j, 3 * i : 3 * i + 3] = cells
    return rows


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
    variance undefined, and for a seed that is not a non-negative integer;
    NumericalError when a summary overflows the float range.
    """
    if reps < 2:
        raise InputError(f"reps must be at least 2, got {reps}")
    _check_seed(seed)
    if config is None:
        config = FriedmanConfig(n_blocks=100, a=2.0, b=2.0)
    ctx = _sim_context(config, TABLE1_QSPECS)
    args = [(seed, s, min(REP_CHUNK, reps - s), ctx) for s in range(0, reps, REP_CHUNK)]
    raw = np.concatenate(map_chunks(_table1_chunk, args, threads))
    deltas = raw[:, 10]

    # the noise-model variance does not depend on the covariate draw
    cate_var = true_ate_variance(friedman_world(config, seed=0))
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        means = raw[:, :10].mean(axis=0)  # columns 0-8 are the cells, 9 the schedule variance
        ses = np.sqrt(np.maximum(np.square(raw[:, :10]).mean(axis=0) - means**2, 0.0) / reps)
        dc = deltas - deltas.mean()
        m2, m4 = np.mean(dc**2), np.mean(dc**4)
        pate_var = float(np.var(deltas, ddof=1))
        pate_se = float(np.sqrt(max(m4 - m2**2 * (reps - 3) / (reps - 1), 0.0) / reps))
    if not np.isfinite([*means, *ses, cate_var, pate_var, pate_se]).all():
        raise NumericalError(f"table 1 summaries overflow at a = {config.a}, b = {config.b}")
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

    targets = {
        "sate_variance": {"value": float(means[9]), "mc_se": float(ses[9])},
        "cate_variance": {"value": float(cate_var), "mc_se": 0.0},
        "pate_variance": {"value": pate_var, "mc_se": pate_se},
    }
    return Table1Result(
        config=config,
        reps=reps,
        cells=cells,
        targets=targets,
        delta_mean=float(deltas.mean()),
        raw=raw if collect_raw else None,
    )


# ---------------------------------------------------------------------------
# power curve for the heterogeneity test
# ---------------------------------------------------------------------------

DEFAULT_A_GRID = (1.0, 1.1, 1.2, 1.3, 1.4, 1.5)


def _power_chunk(args) -> dict:
    """Test p-values of ``count`` replicates from ``rep_start`` at one signal scale.

    The chunk draws from ``chunk_rng(seed, a_index, chunk)``. Each sub-batch
    draws its worlds and assignments by :func:`_draw_replicates`, and, unless
    the space is small enough to enumerate, stacks its bases (``q2_stack``)
    and observed statistics and draws and scores all its replays by
    ``hettest._batch_hits``.
    Last it draws one seed per replicate, for ``permutation_test`` on each
    replicate with a flagged basis or responses that fail ``_squares_fit``,
    and on every replicate of an enumerable space, in replicate order.
    """
    seed, a_index, a, rep_start, count, ctx, qspecs, max_draws = args
    design: BlockDesign = ctx["design"]
    w, q1 = ctx["w"], ctx["q1"]
    b, k = design.n_blocks, ctx["config"].n_covariates
    specs = [QSpec(kind=name) for name in qspecs]
    order = design._group_order
    scalar = n_assignments(design) <= max_draws  # permutation_test enumerates a small space
    pvals = {name: np.empty(count) for name in qspecs}
    rng = chunk_rng(seed, a_index, rep_start // REP_CHUNK)
    for start, size in _sub_batches(rep_start, count, b * (k + q1.rank)):
        x, t, _, _, z, r, tau = _draw_replicates(ctx, rng, size, a)
        fits = _squares_fit(design, r, w)  # the others go to permutation_test, which rejects them
        oks, scored = [], []  # scored: (name, ok, basis in group order, F threshold)
        for spec in specs:
            xbar = _qspec_xbar(spec, x, t)
            if scalar or xbar is None:  # every replicate goes to permutation_test
                oks.append(np.zeros(size, dtype=bool))
                continue
            stack = q2_stack(q1, w[:, None] * xbar)
            oks.append(stack.ok & fits)
            if stack.basis is not None:
                with np.errstate(over="ignore", invalid="ignore"):  # _squares_fit flags those
                    f = _f_values(tau[:, None], w, stack.basis, q1.rank)[:, 0]
                scored.append((spec.kind, oks[-1], stack.basis[:, order], _replay_threshold(f)))
        if scored:
            names, oks_scored, bases, thresh = zip(*scored)
            groups = _option_groups(design, r, OPTION_CELLS)
            oks_scored, thresh = (np.array(v).reshape(-1, size).T for v in (oks_scored, thresh))
            hits = _batch_hits(rng, groups, w[order], q1.rank, bases, thresh, oks_scored, max_draws)
            for name, p in zip(names, (1 + hits.T) / (1 + max_draws)):
                pvals[name][start - rep_start : start - rep_start + size] = p

        # failing replicates in replicate order, so the first of them raises
        perm_seeds = rng.integers(0, 2**62, size=size).tolist()
        for j in np.flatnonzero(~np.logical_and.reduce(oks)):
            data = AssignmentAndOutcomes._from_flat(z[j].astype(np.int64), r[j], design.sizes)
            for spec, ok in zip(specs, oks):
                if not ok[j]:
                    q2 = resolve_qspec(spec, design, x[j])
                    res = permutation_test(design, data, q2, max_draws, seed=perm_seeds[j])
                    pvals[spec.kind][start - rep_start + j] = res.p_value
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
    Raises InputError for fewer than one replicate, for ``max_draws`` below
    one or above ``hettest.MAX_DRAWS``, for a seed that is not a
    non-negative integer and for an ``alpha`` outside (0, 1).
    """
    if reps < 1:
        raise InputError(f"reps must be at least 1, got {reps}")
    _check_max_draws(max_draws)
    _check_seed(seed)
    if not 0.0 < alpha < 1.0:  # NaN fails too
        raise InputError(f"alpha must be inside (0, 1), got {alpha}")
    if config is None:
        config = FriedmanConfig(n_blocks=20, a=1.0, b=1.0)
    ctx = _sim_context(config, qspecs)
    rows = []
    for a_index, a in enumerate(a_grid):
        args = [
            (seed, a_index, float(a), s, min(REP_CHUNK, reps - s), ctx, tuple(qspecs), max_draws)
            for s in range(0, reps, REP_CHUNK)
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
    """Pairs at x_i and quartets at (x_2j, x_2j+1), both over the units of np.repeat(x, 2)."""
    x = 0.25 * np.arange(1, 41, dtype=float)
    units = np.repeat(x, 2)
    cov = np.array([[100.0, 100.0], [100.0, 100.0]])
    models = []
    for n, k in ((2, 1), (4, 2)):
        b = len(units) // n
        ids = [str(i + 1) for i in range(b)]
        sizes, treated = np.full(b, n, dtype=np.int64), np.full(b, k, dtype=np.int64)
        design = BlockDesign._from_arrays(ids, sizes, treated, units[:, None])
        models.append(CateModel._from_flat(design, 100.0 + 30.0 * units, 20.0 * units, cov))
    return models[0], models[1], x


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
