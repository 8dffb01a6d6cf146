"""Point and variance estimators for the weighted difference in means.

Given block effects tau_hat_i and weights w_i = B n_i / N, the treatment
effect estimate is Delta_hat = B^{-1} sum_i w_i tau_hat_i. Five variance
estimators are provided:

* ``paired``: the classical matched-pairs estimator, valid for equal-size
  blocks (exactly pairs in its textbook form).
* ``coarse``: the stratum-wise plug-in using within-arm sample variances,
  needs at least two units per arm in every block.
* ``s1``, ``s2``, ``s3``: projection estimators that regress the weighted
  effects on a block-level basis Q and recycle the residuals, with three
  different leverage corrections. ``s1`` scales effects by 1/sqrt(1-h) before
  projecting; ``s2`` reweights squared residuals by 1/(1-h)^2; ``s3`` by
  1/(1-h). The first two are conservative for the design-based variance; the
  third trades guaranteed conservativeness for a smaller upward bias and is
  intended for equal-size designs.

All quadratic forms are computed as explicit sums of squares, so estimates
are nonnegative up to round-off; results are clamped at zero.
"""
from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from ._util import clamp_variance
from .design import (
    AssignmentAndOutcomes,
    BlockDesign,
    DesignClass,
    block_weights,
    classify_design,
)
from .errors import (
    DimensionMismatch,
    EstimatorWarning,
    InputError,
    InvalidAlpha,
    NonFiniteResponse,
    NumericalError,
    NotCoarse,
    TooFewBlocks,
    UnequalBlocks,
)
from .projection import QMatrix, _residual, build_q1

WEIGHT_EQUAL_ATOL = 1e-9


def _equal_weights(w: np.ndarray) -> bool:
    """Whether every block weight is within WEIGHT_EQUAL_ATOL of one."""
    return bool(np.all(np.abs(np.asarray(w, dtype=float) - 1.0) <= WEIGHT_EQUAL_ATOL))


@dataclass(frozen=True)
class BlockEffects:
    """Per-block summaries of one realized experiment.

    ``var_treated``/``var_control`` are ddof=1 sample variances, NaN whenever
    the corresponding arm has a single unit.
    """

    tau_hat: np.ndarray
    mean_treated: np.ndarray
    mean_control: np.ndarray
    var_treated: np.ndarray
    var_control: np.ndarray
    n_treated: np.ndarray
    n_control: np.ndarray

    @property
    def n_blocks(self) -> int:
        return self.tau_hat.shape[0]

    @property
    def sizes(self) -> np.ndarray:
        return self.n_treated + self.n_control


def block_effects(design: BlockDesign, data: AssignmentAndOutcomes) -> BlockEffects:
    """Treated-minus-control means and within-arm sample variances per block.

    Works on the packed unit arrays of the design and the data: every
    per-block sum is one ``np.add.reduceat``. Variances are sums of squared
    deviations from the arm means (two passes, as ``np.var`` computes
    them). Non-finite responses raise NonFiniteResponse.
    """
    b = design.n_blocks
    z_lens, r_lens = data.assignment.lengths, data.lengths
    if z_lens.shape[0] != b or r_lens.shape[0] != b:
        raise DimensionMismatch(f"data covers {r_lens.shape[0]} blocks, design has {b}")
    sizes = design.sizes
    misaligned = (z_lens != sizes) | (r_lens != sizes)
    if misaligned.any():
        i = int(np.argmax(misaligned))
        raise DimensionMismatch(
            f"block {design.ids[i]!r}: got {z_lens[i]} indicators and {r_lens[i]} "
            f"responses for n={sizes[i]}"
        )
    starts = design.unit_starts
    z = data.assignment.indicators
    n1 = design.treated_counts
    n0 = design.control_counts
    treated_sums = np.add.reduceat(z, starts)
    wrong = treated_sums != n1
    if wrong.any():
        i = int(np.argmax(wrong))
        raise DimensionMismatch(
            f"block {design.ids[i]!r}: assignment treats {int(treated_sums[i])} units, "
            f"design says {n1[i]}"
        )
    r = data.r
    finite = np.isfinite(r)
    if not finite.all():
        i = int(np.searchsorted(starts, np.argmin(finite), side="right")) - 1
        raise NonFiniteResponse(
            f"block {design.ids[i]!r}: responses contain non-finite values"
        )
    t = z == 1
    m1, m0 = _arm_means(design, t, r)
    dev = r - np.where(t, np.repeat(m1, sizes), np.repeat(m0, sizes))
    sq = dev * dev
    sq_t = np.where(t, sq, 0.0)
    v1 = np.add.reduceat(sq_t, starts) / np.maximum(n1 - 1, 1)
    v0 = np.add.reduceat(sq - sq_t, starts) / np.maximum(n0 - 1, 1)
    v1[n1 < 2] = np.nan
    v0[n0 < 2] = np.nan
    return BlockEffects(
        tau_hat=m1 - m0,
        mean_treated=m1,
        mean_control=m0,
        var_treated=v1,
        var_control=v0,
        n_treated=n1.copy(),
        n_control=n0.copy(),
    )


def _arm_means(design: BlockDesign, t: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-block (..., B) treated and control means of flat (..., N) responses ``r``;
    ``t`` marks the treated units."""
    # r - r_t is r on control units and exactly zero on treated ones
    r_t = np.where(t, r, 0.0)
    starts = design.unit_starts
    m1 = np.add.reduceat(r_t, starts, axis=-1) / design.treated_counts
    m0 = np.add.reduceat(r - r_t, starts, axis=-1) / design.control_counts
    return m1, m0


def _block_mean(design: BlockDesign, x: np.ndarray) -> np.ndarray:
    """Per-block mean of a flat (..., N) unit array."""
    return np.add.reduceat(x, design.unit_starts, axis=-1) / design.sizes


def _block_var(design: BlockDesign, x: np.ndarray) -> np.ndarray:
    """Per-block ddof=1 variance of a flat (..., N) unit array, in two passes as np.var."""
    dev = x - np.repeat(_block_mean(design, x), design.sizes, axis=-1)
    return np.add.reduceat(dev * dev, design.unit_starts, axis=-1) / (design.sizes - 1)


def estimate_ate(effects: BlockEffects, w: np.ndarray) -> float:
    """Weighted difference in means, B^{-1} sum_i w_i tau_hat_i."""
    w = np.asarray(w, dtype=float)
    if w.shape != effects.tau_hat.shape:
        raise DimensionMismatch(f"weights shape {w.shape} vs effects {effects.tau_hat.shape}")
    return float(w @ effects.tau_hat) / effects.n_blocks


def var_paired_classical(effects: BlockEffects, w: np.ndarray) -> float:
    """Matched-pairs variance estimator, sum (tau_i - Delta)^2 / (B (B-1)).

    Requires equal block weights; raises UnequalBlocks otherwise. For
    equal-size designs that are not pairs the same formula still applies (it
    coincides with the s1 estimator on the intercept basis) and is computed
    with a warning.
    """
    w = np.asarray(w, dtype=float)
    b = effects.n_blocks
    if b < 2:
        raise TooFewBlocks("paired variance needs at least two blocks")
    if not _equal_weights(w):
        raise UnequalBlocks("paired variance requires equal block weights")
    sizes = effects.sizes
    if np.any(sizes != 2):
        warnings.warn(
            "paired variance applied to equal-size blocks that are not pairs",
            EstimatorWarning,
            stacklevel=2,
        )
    delta = float(np.mean(effects.tau_hat))
    value = float(np.sum((effects.tau_hat - delta) ** 2)) / (b * (b - 1))
    return clamp_variance(value)


def var_coarse_classical(effects: BlockEffects, w: np.ndarray) -> float:
    """Stratum-wise plug-in, B^{-2} sum w_i^2 (s1_i^2/n1_i + s0_i^2/n0_i)."""
    w = np.asarray(w, dtype=float)
    small = np.minimum(effects.n_treated, effects.n_control) < 2
    if np.any(small):
        idx = int(np.flatnonzero(small)[0])
        raise NotCoarse(
            f"block index {idx} has a singleton arm; within-arm variances undefined"
        )
    b = effects.n_blocks
    per_block = effects.var_treated / effects.n_treated + effects.var_control / effects.n_control
    value = float(np.sum(w**2 * per_block)) / b**2
    return clamp_variance(value)


def _projection_variances(
    tau: np.ndarray, w: np.ndarray, basis: np.ndarray, psi: np.ndarray, psi_tilde: np.ndarray
) -> np.ndarray:
    """Unclamped (s1, s2, s3) of the block effects ``tau`` on a basis, as (..., 3).

    ``tau`` is (..., B), ``basis`` the (..., B, L) orthonormal factor U of
    the basis, and ``psi``, ``psi_tilde`` its (..., B) leverage reweightings
    1/(1-h)^2 and 1/(1-h); any leading replicate axes broadcast.
    """
    b2 = tau.shape[-1] ** 2
    scaled = _residual((w * (tau * np.sqrt(psi_tilde)))[..., None, :], basis)[..., 0, :]
    resid_sq = _residual((w * tau)[..., None, :], basis)[..., 0, :] ** 2
    sums = (
        np.einsum("...i,...i->...", scaled, scaled),
        np.einsum("...i,...i->...", resid_sq, psi),
        np.einsum("...i,...i->...", resid_sq, psi_tilde),
    )
    return np.stack(sums, axis=-1) / b2


def _projection_estimates(effects: BlockEffects, w: np.ndarray, q: QMatrix) -> list[float]:
    """Clamped (s1, s2, s3) of the effects on basis ``q``, from one evaluation of the sums.

    Raises DimensionMismatch when the weights or the basis rows do not match the blocks.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != effects.tau_hat.shape:
        raise DimensionMismatch(f"weights shape {w.shape} vs effects {effects.tau_hat.shape}")
    if q.n_blocks != effects.n_blocks:
        raise DimensionMismatch(
            f"basis has {q.n_blocks} rows, effects have {effects.n_blocks} blocks"
        )
    sums = _projection_variances(effects.tau_hat, w, q.basis, q.psi, q.psi_tilde)
    return [clamp_variance(s) for s in sums]


def var_s1(effects: BlockEffects, w: np.ndarray, q: QMatrix) -> float:
    """Projection estimator with effects pre-scaled by 1/sqrt(1 - h).

    B^{-2} y' W (I - H_Q) W y with y_i = tau_hat_i / sqrt(1 - h_ii).
    """
    return _projection_estimates(effects, w, q)[0]


def var_s2(effects: BlockEffects, w: np.ndarray, q: QMatrix) -> float:
    """Projection estimator with squared residuals reweighted by 1/(1-h)^2."""
    return _projection_estimates(effects, w, q)[1]


def var_s3(effects: BlockEffects, w: np.ndarray, q: QMatrix) -> float:
    """Projection estimator with squared residuals reweighted by 1/(1-h).

    Aimed at equal-size designs; emits a warning when block weights differ
    because the smaller correction is not guaranteed conservative there.
    """
    s3 = _projection_estimates(effects, w, q)[2]  # checks shapes before the warning
    _warn_unequal_s3(w)
    return s3


def _warn_unequal_s3(w: np.ndarray) -> None:
    """Warn that s3 is not established as conservative when block weights differ."""
    if not _equal_weights(w):
        warnings.warn(
            "s3 reweighting applied to unequal block sizes; conservativeness "
            "is only established for equal sizes",
            EstimatorWarning,
            stacklevel=3,
        )


def confidence_interval(delta_hat: float, s2: float, alpha: float) -> tuple[float, float]:
    """Normal-approximation interval Delta_hat +/- z_{1-alpha/2} sqrt(s2).

    z is the standard library's ``NormalDist().inv_cdf``, within a few ulp
    of ``scipy.stats.norm.ppf``. An alpha so small that 1 - alpha/2 rounds
    to one has no finite z and raises InvalidAlpha.
    """
    if not (0.0 < alpha < 1.0):
        raise InvalidAlpha(f"alpha must lie in (0, 1), got {alpha}")
    p = 1.0 - alpha / 2.0
    if p >= 1.0:
        raise InvalidAlpha(f"alpha {alpha} is too small: 1 - alpha/2 rounds to one")
    z = NormalDist().inv_cdf(p)
    half = z * float(np.sqrt(max(s2, 0.0)))
    return (float(delta_hat) - half, float(delta_hat) + half)


@dataclass(frozen=True)
class VarianceReport:
    """Everything one analysis run produced, ready for serialization."""

    delta_hat: float
    alpha: float
    design_class: str
    n_blocks: int
    n_units: int
    estimates: dict
    intervals: dict
    q_info: dict | None = None
    warnings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "schema": "stratavar.variance_report.v1",
            "delta_hat": self.delta_hat,
            "alpha": self.alpha,
            "design_class": self.design_class,
            "n_blocks": self.n_blocks,
            "n_units": self.n_units,
            "estimates": {k: float(v) for k, v in self.estimates.items()},
            "intervals": {k: [float(lo), float(hi)] for k, (lo, hi) in self.intervals.items()},
            "q": self.q_info,
            "warnings": list(self.warnings),
        }


def q_info_dict(q: QMatrix) -> dict:
    return {
        "kind": q.kind,
        "rank": int(q.rank),
        "q1_rank": int(q.q1_rank),
        "added_covariate_rank": int(q.added_covariate_rank),
        "dropped_columns": [int(j) for j in q.dropped_columns],
        "notes": list(q.notes),
    }


def analyze_experiment(
    design: BlockDesign,
    data: AssignmentAndOutcomes,
    q: QMatrix | None = None,
    estimators="auto",
    alpha: float = 0.05,
) -> VarianceReport:
    """Run the requested estimators on one experiment and collect a report.

    ``estimators`` may be "auto" (projection estimators plus whichever
    classical estimator the design supports) or an explicit, non-empty list
    of names from {"paired", "coarse", "s1", "s2", "s3"}; any other value
    raises InputError. Raises NumericalError when an estimate or interval
    bound overflows the float range.
    """
    if not (0.0 < alpha < 1.0):
        raise InvalidAlpha(f"alpha must lie in (0, 1), got {alpha}")
    w = block_weights(design)
    effects = block_effects(design, data)
    delta = estimate_ate(effects, w)
    if q is None:
        q = build_q1(design)
    design_class = classify_design(design)

    if estimators == "auto":
        names = ["s1", "s2", "s3"]
        if np.all(design.sizes == 2):
            names.insert(0, "paired")
        if design_class is DesignClass.COARSE:
            names.insert(0, "coarse")
    else:
        names = [] if isinstance(estimators, str) else list(estimators)
        if not names:
            raise InputError(f'estimators must be "auto" or a list of names, got {estimators!r}')
        unknown = [n for n in names if n not in {"paired", "coarse", "s1", "s2", "s3"}]
        if unknown:
            raise InputError(f"unknown estimators: {unknown}")

    projected = functools.cache(lambda: _projection_estimates(effects, w, q))

    def s3() -> float:
        _warn_unequal_s3(w)
        return projected()[2]

    fns = {
        "paired": lambda: var_paired_classical(effects, w),
        "coarse": lambda: var_coarse_classical(effects, w),
        "s1": lambda: projected()[0],
        "s2": lambda: projected()[1],
        "s3": s3,
    }
    estimates: dict[str, float] = {}
    intervals: dict[str, tuple[float, float]] = {}
    collected: list[str] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for name in names:
            estimates[name] = fns[name]()
            intervals[name] = confidence_interval(delta, estimates[name], alpha)
        collected = [str(c.message) for c in caught]
    if not np.isfinite([delta, *estimates.values(), *sum(intervals.values(), ())]).all():
        raise NumericalError("the estimates overflow the float range; rescale the responses")
    return VarianceReport(
        delta_hat=delta,
        alpha=alpha,
        design_class=design_class.value,
        n_blocks=design.n_blocks,
        n_units=design.n_units,
        estimates=estimates,
        intervals=intervals,
        q_info=q_info_dict(q),
        warnings=tuple(collected),
    )
