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

Both truths hold their arms as flat (N,) unit arrays in the design's packed
layout. The public constructors take one array per block and pack them
once; ``r1``/``r0`` and ``f1``/``f0`` are read-only per-block views. Noise
draws, revealed responses and the enumeration behind the brute-force
expectations stay on the flat arrays: every assignment is packed, and its
responses are revealed in one vectorized pass.
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
from .estimators import _block_mean, _block_var, block_effects, var_s1

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


class PotentialWorld(_Frozen):
    """A complete potential-outcome schedule over a design.

    ``PotentialWorld(design, r1, r0)`` packs per-block arms into the flat
    (N,) unit arrays ``_arms``; ``r1`` and ``r0`` are read-only per-block
    views over them, built on first access.
    """

    r1 = cached_property(lambda self: _views(self._arms[0], self.design.sizes))
    r0 = cached_property(lambda self: _views(self._arms[1], self.design.sizes))

    def __init__(self, design: BlockDesign, r1, r0):
        arms = (_flat_arm(design, r1, "r1"), _flat_arm(design, r0, "r0"))
        self.__dict__.update(design=design, _arms=arms)

    @classmethod
    def _from_flat(cls, design: BlockDesign, r1: np.ndarray, r0: np.ndarray) -> "PotentialWorld":
        """A schedule over flat (N,) arms, taken as they are."""
        world = cls.__new__(cls)
        world.__dict__.update(design=design, _arms=(r1, r0))
        return world

    @cached_property
    def tau_bar(self) -> np.ndarray:
        return _block_mean(self.design, self._arms[0] - self._arms[1])

    @cached_property
    def sigma2_treated(self) -> np.ndarray:
        return _block_var(self.design, self._arms[0])

    @cached_property
    def sigma2_control(self) -> np.ndarray:
        return _block_var(self.design, self._arms[1])

    @cached_property
    def sigma2_tau(self) -> np.ndarray:
        return _block_var(self.design, self._arms[0] - self._arms[1])


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


class CateModel(_Frozen):
    """Systematic potential outcomes plus unit-level between-arm noise.

    ``noise_cov`` is the 2x2 covariance of (treated-arm, control-arm) noise
    for every unit, or a (B, 2, 2) array for block-specific covariances.
    Noise is independent across units. ``CateModel(design, f1, f0,
    noise_cov)`` packs per-block systematic arms into the flat (N,) unit
    arrays ``_arms``; ``f1`` and ``f0`` are read-only per-block views over
    them, built on first access.
    """

    f1 = cached_property(lambda self: _views(self._arms[0], self.design.sizes))
    f0 = cached_property(lambda self: _views(self._arms[1], self.design.sizes))

    def __init__(self, design: BlockDesign, f1, f0, noise_cov):
        arms = (_flat_arm(design, f1, "f1"), _flat_arm(design, f0, "f0"))
        self.__dict__.update(design=design, _arms=arms, noise_cov=_noise_cov(design, noise_cov))

    @classmethod
    def _from_flat(cls, design: BlockDesign, f1: np.ndarray, f0: np.ndarray, noise_cov):
        """A model over flat (N,) systematic arms, taken as they are."""
        model = cls.__new__(cls)
        cov = _noise_cov(design, noise_cov)
        model.__dict__.update(design=design, _arms=(f1, f0), noise_cov=cov)
        return model

    @cached_property
    def f_bar(self) -> np.ndarray:
        """Block means of the systematic effect f1 - f0."""
        return _block_mean(self.design, self._arms[0] - self._arms[1])

    @cached_property
    def sigma2_f_treated(self) -> np.ndarray:
        return _block_var(self.design, self._arms[0])

    @cached_property
    def sigma2_f_control(self) -> np.ndarray:
        return _block_var(self.design, self._arms[1])

    @cached_property
    def sigma2_f_tau(self) -> np.ndarray:
        return _block_var(self.design, self._arms[0] - self._arms[1])

    @cached_property
    def noise_var_treated(self) -> np.ndarray:
        return self.noise_cov[:, 0, 0]

    @cached_property
    def noise_var_control(self) -> np.ndarray:
        return self.noise_cov[:, 1, 1]

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


def _draw_noise(model: CateModel, rng: np.random.Generator, reps: int | None = None) -> np.ndarray:
    """(N, 2) unit noise, (treated, control) columns, from the model's noise law.

    One (N, 2) draw when every block shares one noise factor, else one per block.
    With ``reps`` the noise is (reps, N, 2) and each draw gains that leading axis.
    """
    factors = model._noise_factors
    lead = () if reps is None else (reps,)
    sizes = model.design.sizes
    if np.all(factors == factors[0]):
        return rng.standard_normal(lead + (model.design.n_units, 2)) @ factors[0].T
    return np.concatenate(
        [rng.standard_normal(lead + (n, 2)) @ factors[i].T for i, n in enumerate(sizes.tolist())],
        axis=-2,
    )


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


def true_block_variance(truth) -> np.ndarray:
    """Design-based variance of each block effect tau_hat_i.

    For a PotentialWorld this is over randomization only; for a CateModel it
    also integrates over the noise law (whose between-arm covariance never
    enters, because a unit reveals exactly one arm).
    """
    design = truth.design
    if isinstance(truth, PotentialWorld):
        return _randomization_variance(design, *truth._arms)
    if isinstance(truth, CateModel):
        return (
            truth.noise_var_treated / design.treated_counts
            + truth.noise_var_control / design.control_counts
            + _randomization_variance(design, *truth._arms)
        )
    raise TypeError(f"expected PotentialWorld or CateModel, got {type(truth).__name__}")


def true_ate_variance(truth) -> float:
    """Variance of the weighted difference in means, B^{-2} sum w_i^2 var_i."""
    w = block_weights(truth.design)
    return float(np.sum(w**2 * true_block_variance(truth))) / truth.design.n_blocks**2


def _effect_means(truth) -> np.ndarray:
    if isinstance(truth, PotentialWorld):
        return truth.tau_bar
    if isinstance(truth, CateModel):
        return truth.f_bar
    raise TypeError(f"expected PotentialWorld or CateModel, got {type(truth).__name__}")


def expected_bias_s1(truth, w: np.ndarray, q: QMatrix) -> float:
    """Exact expectation gap of the s1 estimator: B^{-2} mu' W (I-H) W mu.

    mu is the leverage-scaled vector of mean effects, tau_bar/sqrt(1-h) for a
    schedule and f_bar/sqrt(1-h) for a noise model. Nonnegative by
    construction, hence the estimator is conservative.
    """
    w = np.asarray(w, dtype=float)
    mu = _effect_means(truth) / np.sqrt(1.0 - q.leverages)
    resid = q.residual(w * mu)
    return float(resid @ resid) / truth.design.n_blocks**2


def expected_bias_s2(truth, w: np.ndarray, q: QMatrix) -> float:
    """Exact expectation gap of the s2 estimator.

    Sum of a cross-leverage term, sum_i w_i^2 var_i sum_{j != i}
    h_ij^2/(1-h_jj)^2, and the quadratic form of the unscaled mean effects
    through (I-H) Psi (I-H). Both pieces are nonnegative. With H = U U',
    sum_j h_ij^2 psi_j = u_i' (U' Psi U) u_i, an L x L product per block.
    """
    w = np.asarray(w, dtype=float)
    b = truth.design.n_blocks
    var_i = true_block_variance(truth)
    u = q.basis
    psi = q.psi
    gram = u.T @ (psi[:, None] * u)
    cross = np.sum((u @ gram) * u, axis=1) - q.leverages**2 * psi
    term1 = float(np.sum(w**2 * var_i * cross))
    resid = q.residual(w * _effect_means(truth))
    term2 = float(np.sum(resid**2 * psi))
    return (term1 + term2) / b**2


def expected_bias_s3(model: CateModel, w: np.ndarray, q: QMatrix) -> float:
    """Exact expectation gap of the s3 estimator under its stated premises.

    Requires equal block sizes and homoskedastic block effects (equal
    var(tau_hat_i)); then the gap is B^{-2} f_bar' (I-H) Psi_tilde (I-H) f_bar,
    zero whenever f_bar lies in col(Q).
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
    resid = q.residual(model.f_bar)
    return float(np.sum(resid**2 / (1.0 - q.leverages))) / model.design.n_blocks**2


def expected_bias_scs(truth, w: np.ndarray) -> float:
    """Exact expectation gap of the coarse classical estimator.

    B^{-2} sum_i w_i^2 sigma2_tau_i / n_i, where sigma2_tau is the within-block
    variance of unit-level effects. For noise models only the systematic part
    appears: arm noise raises the plug-in's expectation and the true variance
    by the same amount, so it drops out of the gap.
    """
    w = np.asarray(w, dtype=float)
    if isinstance(truth, PotentialWorld):
        s2t = truth.sigma2_tau
    elif isinstance(truth, CateModel):
        s2t = truth.sigma2_f_tau
    else:
        raise TypeError(f"expected PotentialWorld or CateModel, got {type(truth).__name__}")
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
    count = n_assignments(design)
    totals = {name: 0.0 for name in statistics}
    for a in enumerate_assignments(design, cap=cap):
        data = observed_responses(world, a)
        for name, fn in statistics.items():
            totals[name] += fn(data)
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
