"""Ground truth for simulation studies and estimator verification.

Two kinds of truth are supported:

* ``PotentialWorld``: a fixed schedule of potential outcomes (r1, r0) for
  every unit. Expectations are over the randomization distribution alone,
  and the estimand is the schedule's average treatment effect.
* ``CateModel``: systematic components (f1, f0) plus unit-level noise with a
  known 2x2 covariance between arms. Expectations are over randomization and
  noise jointly, and the estimand is the conditional average effect.

For both, closed forms are provided for the true variance of the weighted
difference in means and for the exact expectation gaps (biases) of every
variance estimator in :mod:`stratavar.estimators`. ``brute_force_expectation``
averages an arbitrary statistic over the full assignment space and is the
independent check the closed forms are tested against.

Both truths share one layout: flat (N,) unit arms in the design's packed
order, packed once by the public constructors, with read-only per-block
views ``r1``/``r0`` and ``f1``/``f0``. Each closed-form gap of a projection
estimator is that estimator's own kernel, ``_projection_variances``, at the
mean effects, plus s2's cross-leverage term. Noise draws, revealed responses
and the enumeration behind the brute-force expectations stay on the flat
arms, one vectorized pass per assignment.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._util import as_rng
from .design import (
    Assignment,
    AssignmentAndOutcomes,
    BlockDesign,
    _Frozen,
    _views,
    block_weights,
    enumerate_assignments,
    n_assignments,
)
from .errors import DimensionMismatch, PreconditionViolated
from .projection import QMatrix, build_q1, build_q2
from .estimators import _block_mean, _block_var, _projection_variances, block_effects, var_s1

DEFAULT_BRUTE_FORCE_CAP = 10_000


def _flat_arm(design: BlockDesign, values, label: str) -> np.ndarray:
    """Per-block unit values, checked against the design and packed into one (N,) array."""
    if len(values) != design.n_blocks:
        raise DimensionMismatch(f"{label} covers {len(values)} blocks, design has {design.n_blocks}")
    arrays = [np.asarray(v, dtype=float) for v in values]
    for block_id, n, a in zip(design.ids, design.sizes.tolist(), arrays):
        if a.shape != (n,):
            raise DimensionMismatch(
                f"{label} for block {block_id!r} has shape {a.shape}, expected ({n},)"
            )
    return np.concatenate(arrays)


class _Truth(_Frozen):
    """Two flat (N,) unit arms ``_arms`` over a design, in its packed layout.

    The block means and within-block variances of the unit effect
    ``_arms[0] - _arms[1]`` are computed once, for both kinds of truth.
    """

    @classmethod
    def _from_flat(cls, design: BlockDesign, arm1: np.ndarray, arm0: np.ndarray, **fields):
        """A truth over flat (N,) arms, taken as they are."""
        truth = cls.__new__(cls)
        truth.__dict__.update(design=design, _arms=(arm1, arm0), **fields)
        return truth

    @cached_property
    def _effect_summaries(self) -> tuple[np.ndarray, np.ndarray]:
        effect = self._arms[0] - self._arms[1]
        return _block_mean(self.design, effect), _block_var(self.design, effect)


class PotentialWorld(_Truth):
    """A complete potential-outcome schedule over a design.

    ``PotentialWorld(design, r1, r0)`` packs per-block arms into the flat
    (N,) unit arrays ``_arms``; ``r1`` and ``r0`` are read-only per-block
    views over them, built on first access.
    """

    r1 = cached_property(lambda self: _views(self._arms[0], self.design.sizes))
    r0 = cached_property(lambda self: _views(self._arms[1], self.design.sizes))
    tau_bar = property(lambda self: self._effect_summaries[0])
    sigma2_tau = property(lambda self: self._effect_summaries[1])
    sigma2_treated = cached_property(lambda self: _block_var(self.design, self._arms[0]))
    sigma2_control = cached_property(lambda self: _block_var(self.design, self._arms[1]))

    def __init__(self, design: BlockDesign, r1, r0):
        arms = (_flat_arm(design, r1, "r1"), _flat_arm(design, r0, "r0"))
        self.__dict__.update(design=design, _arms=arms)


def _noise_cov(design: BlockDesign, noise_cov) -> np.ndarray:
    """(B, 2, 2) noise covariances from one (2, 2) array or one per block."""
    cov = np.asarray(noise_cov, dtype=float)
    if cov.shape == (2, 2):
        cov = np.broadcast_to(cov, (design.n_blocks, 2, 2)).copy()
    if cov.shape != (design.n_blocks, 2, 2):
        raise DimensionMismatch(
            f"noise_cov must be (2, 2) or (B, 2, 2), got {np.asarray(noise_cov).shape}"
        )
    return cov


class CateModel(_Truth):
    """Systematic potential outcomes plus unit-level between-arm noise.

    ``noise_cov`` is the 2x2 covariance of (treated-arm, control-arm) noise
    for every unit, or a (B, 2, 2) array for block-specific covariances.
    Noise is independent across units. ``CateModel(design, f1, f0,
    noise_cov)`` packs per-block systematic arms into the flat (N,) unit
    arrays ``_arms``; ``f1`` and ``f0`` are read-only per-block views over
    them, built on first access. ``f_bar`` holds the block means of f1 - f0.
    """

    f1 = cached_property(lambda self: _views(self._arms[0], self.design.sizes))
    f0 = cached_property(lambda self: _views(self._arms[1], self.design.sizes))
    f_bar = property(lambda self: self._effect_summaries[0])
    noise_var_treated = property(lambda self: self.noise_cov[:, 0, 0])
    noise_var_control = property(lambda self: self.noise_cov[:, 1, 1])

    def __init__(self, design: BlockDesign, f1, f0, noise_cov):
        arms = (_flat_arm(design, f1, "f1"), _flat_arm(design, f0, "f0"))
        self.__dict__.update(design=design, _arms=arms, noise_cov=_noise_cov(design, noise_cov))

    @classmethod
    def _from_flat(cls, design: BlockDesign, f1: np.ndarray, f0: np.ndarray, noise_cov):
        """A model over flat (N,) systematic arms, taken as they are."""
        return super()._from_flat(design, f1, f0, noise_cov=_noise_cov(design, noise_cov))

    @cached_property
    def _noise_factors(self) -> np.ndarray:
        """(B, 2, 2) factors L with L L' = noise_cov, tolerant of singular cov."""
        vals, vecs = np.linalg.eigh(self.noise_cov)
        indefinite = np.any(vals < -1e-8 * np.maximum(vals.max(axis=1), 1.0)[:, None], axis=1)
        if indefinite.any():
            i = int(np.argmax(indefinite))
            raise PreconditionViolated(f"noise covariance for block {i} is not PSD")
        return vecs * np.sqrt(np.clip(vals, 0.0, None))[:, None, :]


def sate(world: PotentialWorld) -> float:
    """Schedule average treatment effect, N^{-1} sum_ij (r1_ij - r0_ij)."""
    return float(np.sum(world.design.sizes * world.tau_bar)) / world.design.n_units


def cate(model: CateModel) -> float:
    """Average systematic effect, N^{-1} sum_ij (f1_ij - f0_ij)."""
    return float(np.sum(model.design.sizes * model.f_bar)) / model.design.n_units


def _revealed(z: np.ndarray, r1: np.ndarray, r0: np.ndarray) -> np.ndarray:
    """Observed responses for 0/1 treated flags ``z`` over unit arms r1, r0."""
    return z * r1 + (1.0 - z) * r0


def observed_responses(world: PotentialWorld, assignment: Assignment) -> AssignmentAndOutcomes:
    """Reveal the schedule under one assignment.

    Raises DimensionMismatch, naming the first block, when the sizes differ.
    """
    sizes, lengths = world.design.sizes, assignment.lengths
    # sampled and enumerated assignments share their design's sizes array
    if lengths is not sizes and not np.array_equal(lengths, sizes):
        if len(lengths) != len(sizes):
            raise DimensionMismatch(
                f"assignment covers {len(lengths)} blocks, design has {len(sizes)}"
            )
        i = int(np.argmax(lengths != sizes))
        raise DimensionMismatch(
            f"block {world.design.ids[i]!r}: assignment has {lengths[i]} units for n={sizes[i]}"
        )
    z = assignment.indicators
    return AssignmentAndOutcomes._from_flat(z, _revealed(z, *world._arms), assignment.lengths)


def _draw_noise(model: CateModel, rng: np.random.Generator) -> np.ndarray:
    """(N, 2) unit noise, (treated, control) columns, from the model's noise law.

    One (N, 2) draw when every block shares one noise factor, else one per block.
    """
    factors = model._noise_factors
    if np.all(factors == factors[0]):
        return rng.standard_normal((model.design.n_units, 2)) @ factors[0].T
    sizes = model.design.sizes.tolist()
    return np.concatenate([rng.standard_normal((n, 2)) @ factors[i].T for i, n in enumerate(sizes)])


def draw_world(model: CateModel, seed) -> PotentialWorld:
    """Sample one potential-outcome schedule from the model's noise law."""
    eps = _draw_noise(model, as_rng(seed))
    f1, f0 = model._arms
    return PotentialWorld._from_flat(model.design, f1 + eps[:, 0], f0 + eps[:, 1])


def _randomization_variance(design: BlockDesign, r1: np.ndarray, r0: np.ndarray) -> np.ndarray:
    """Per-block variance of tau_hat over randomization for flat unit arms r1, r0,
    S1^2/n1 + S0^2/n0 - S_tau^2/n."""
    return (
        _block_var(design, r1) / design.treated_counts
        + _block_var(design, r0) / design.control_counts
        - _block_var(design, r1 - r0) / design.sizes
    )


def _truth(truth) -> _Truth:
    """The truth itself; raises TypeError, naming its type, for anything else."""
    if not isinstance(truth, _Truth):
        raise TypeError(f"expected PotentialWorld or CateModel, got {type(truth).__name__}")
    return truth


def true_block_variance(truth) -> np.ndarray:
    """Design-based variance of each block effect tau_hat_i.

    For a PotentialWorld this is over randomization only; for a CateModel it
    also integrates over the noise law (whose between-arm covariance never
    enters, because a unit reveals exactly one arm).
    """
    design = _truth(truth).design
    if isinstance(truth, CateModel):
        return (
            truth.noise_var_treated / design.treated_counts
            + truth.noise_var_control / design.control_counts
            + _randomization_variance(design, *truth._arms)
        )
    return _randomization_variance(design, *truth._arms)


def true_ate_variance(truth) -> float:
    """Variance of the weighted difference in means, B^{-2} sum w_i^2 var_i."""
    var_i = true_block_variance(truth)
    w = block_weights(truth.design)
    return float(np.sum(w**2 * var_i)) / truth.design.n_blocks**2


def _mean_effect_sums(truth, w, q: QMatrix) -> np.ndarray:
    """The unclamped (s1, s2, s3) sums of the estimators' kernel at the mean effects.

    Each projection estimator is a quadratic form in the block effects, so
    its expectation is the same form at the mean effects (tau_bar, or f_bar
    for a noise model) plus a trace term of the effects' covariance.
    """
    mean_effects = _truth(truth)._effect_summaries[0]
    return _projection_variances(mean_effects, w, q.basis, q.psi, q.psi_tilde)


def expected_bias_s1(truth, w: np.ndarray, q: QMatrix) -> float:
    """Exact expectation gap of the s1 estimator: B^{-2} mu' W (I-H) W mu.

    mu is the leverage-scaled vector of mean effects, tau_bar/sqrt(1-h) for a
    schedule and f_bar/sqrt(1-h) for a noise model: the s1 sum at the mean
    effects, whose trace term is zero. Nonnegative by construction, hence
    the estimator is conservative.
    """
    return float(_mean_effect_sums(truth, np.asarray(w, dtype=float), q)[0])


def expected_bias_s2(truth, w: np.ndarray, q: QMatrix) -> float:
    """Exact expectation gap of the s2 estimator.

    Sum of a cross-leverage term, sum_i w_i^2 var_i sum_{j != i}
    h_ij^2/(1-h_jj)^2, and the quadratic form of the unscaled mean effects
    through (I-H) Psi (I-H), the s2 sum at the mean effects. Both pieces are
    nonnegative. With H = U U', sum_j h_ij^2 psi_j = u_i' (U' Psi U) u_i, an
    L x L product per block.
    """
    w = np.asarray(w, dtype=float)
    var_i = true_block_variance(truth)
    u, psi = q.basis, q.psi
    cross = np.sum((u @ (u.T @ (psi[:, None] * u))) * u, axis=1) - q.leverages**2 * psi
    term1 = float(np.sum(w**2 * var_i * cross)) / truth.design.n_blocks**2
    return term1 + float(_mean_effect_sums(truth, w, q)[1])


def expected_bias_s3(model: CateModel, w: np.ndarray, q: QMatrix) -> float:
    """Exact expectation gap of the s3 estimator under its stated premises.

    Requires equal block sizes and homoskedastic block effects (equal
    var(tau_hat_i)); then the gap is B^{-2} f_bar' (I-H) Psi_tilde (I-H) f_bar,
    the s3 sum at the mean effects with w = 1, zero whenever f_bar lies in
    col(Q).
    """
    if not isinstance(model, CateModel):
        raise PreconditionViolated("s3 bias formula is stated for noise models only")
    w = np.asarray(w, dtype=float)
    if not np.allclose(w, 1.0, rtol=0.0, atol=1e-12):
        raise PreconditionViolated("s3 bias formula requires equal block sizes")
    var_i = true_block_variance(model)
    spread = float(var_i.max() - var_i.min())
    if spread > 1e-8 * max(float(np.abs(var_i).max()), 1.0):
        raise PreconditionViolated("s3 bias formula requires homoskedastic block effects")
    return float(_mean_effect_sums(model, 1.0, q)[2])


def expected_bias_scs(truth, w: np.ndarray) -> float:
    """Exact expectation gap of the coarse classical estimator.

    B^{-2} sum_i w_i^2 sigma2_tau_i / n_i, where sigma2_tau is the within-block
    variance of unit-level effects. For noise models only the systematic part
    appears: arm noise raises the plug-in's expectation and the true variance
    by the same amount, so it drops out of the gap.
    """
    s2t = _truth(truth)._effect_summaries[1]
    w = np.asarray(w, dtype=float)
    return float(np.sum(w**2 * s2t / truth.design.sizes)) / truth.design.n_blocks**2


def brute_force_expectation(
    world: PotentialWorld, statistic, cap: int = DEFAULT_BRUTE_FORCE_CAP
) -> float:
    """Average ``statistic(data)`` over the whole assignment space.

    The statistic receives the AssignmentAndOutcomes for each assignment in
    turn. Raises SpaceTooLarge when the space exceeds ``cap``.
    """
    return brute_force_expectations(world, {"stat": statistic}, cap=cap)["stat"]


def brute_force_expectations(
    world: PotentialWorld, statistics: dict, cap: int = DEFAULT_BRUTE_FORCE_CAP
) -> dict:
    """One enumeration pass serving several statistics at once."""
    design = world.design
    totals = {name: 0.0 for name in statistics}
    for a in enumerate_assignments(design, cap=cap):
        data = observed_responses(world, a)
        for name, fn in statistics.items():
            totals[name] += fn(data)
    count = n_assignments(design)
    return {name: total / count for name, total in totals.items()}


@dataclass(frozen=True)
class LimitDiagnostics:
    """Finite-sample analogs of the large-B decomposition of the s1 gap.

    ``beta_quadform`` is B^{-1} (W tau_bar)' H_M (W tau_bar), the quadratic
    form of the mean effects through the added-covariate projection;
    ``basis_gap`` is B (s1(Q1) - s1(Q2)) for the supplied assignment. As B
    grows the randomization mean of the gap approaches the quadform.
    """

    beta_quadform: float
    basis_gap: float


def empirical_limit_diagnostics(
    world: PotentialWorld, xbar, assignment: Assignment, poly_degree: int = 1
) -> LimitDiagnostics:
    """Compare the realized covariate-adjustment gap against its limit."""
    design = world.design
    w = block_weights(design)
    q1 = build_q1(design)
    q2 = build_q2(design, xbar=xbar, poly_degree=poly_degree)
    v = w * world.tau_bar
    explained = float(np.sum((q2.basis[:, q2.q1_rank :].T @ v) ** 2))  # v' H_M v
    beta_quadform = explained / design.n_blocks
    effects = block_effects(design, observed_responses(world, assignment))
    gap = design.n_blocks * (var_s1(effects, w, q1) - var_s1(effects, w, q2))
    return LimitDiagnostics(beta_quadform=beta_quadform, basis_gap=gap)
