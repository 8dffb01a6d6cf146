"""Randomization test for treatment effect heterogeneity along covariates.

The statistic is a partial F ratio at the block level: project the weighted
block effects onto the covariate columns of a q2 basis (orthogonal to the
intercept-and-weights columns), and compare that explained square norm to
the residual square norm beyond the full basis,

    F = [v' H_M v / v' (I - H_Q2) v] * (B - rank(Q2)) / K,   v = W tau_hat.

Under the additivity null the observed responses determine both potential
outcomes of every unit (tau == 0 gives r1 = r0 = R), so the randomization
distribution of F can be replayed exactly: enumerate the assignment space
when it is small, or sample it with the add-one Monte Carlo convention
p = (1 + #{F(z) >= t}) / (1 + draws). Imputing any constant effect c on top
of the observed responses would shift each replay's v by c times the weights
column, which both projections annihilate, so the replay distribution and
the p-value do not depend on the imputed constant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import chunk_rng, map_chunks
from .design import AssignmentAndOutcomes, BlockDesign, block_weights, n_assignments
from .errors import BadQPair, InputError, ZeroDenominator
from .estimators import _option_groups, _sample_effects, block_effects
from .projection import QMatrix

DENOMINATOR_TOL = 1e-12
CHUNK = 8192
CELLS = 1 << 18  # Monte Carlo chunk budget in draws x B cells: 2 MB per float matrix
OPTION_CELLS = 256  # largest C(n, k) * k for which a block gets an option table
EXACT_OPTION_CELLS = 1 << 20  # largest C(n, k) * k of one block that exact enumeration tables


@dataclass(frozen=True)
class HetTestResult:
    """Observed statistic and its randomization p-value."""

    f_observed: float
    p_value: float
    draws: int
    exact: bool
    numerator_df: int
    denominator_df: int
    seed: int | None
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        finite = math.isfinite(self.f_observed)
        return {
            "schema": "stratavar.het_test.v1",
            "f_observed": float(self.f_observed) if finite else None,
            "p_value": float(self.p_value),
            "draws": int(self.draws),
            "exact": bool(self.exact),
            "numerator_df": int(self.numerator_df),
            "denominator_df": int(self.denominator_df),
            "seed": self.seed,
            "notes": list(self.notes),
        }


def _covariate_block(q2: QMatrix) -> np.ndarray:
    """Orthonormal basis Q_M of the added covariate columns, read off the q2 factor."""
    if q2.added_covariate_rank < 1:
        raise BadQPair("basis adds no covariate columns beyond intercept and weights")
    return q2.basis[:, q2.q1_rank :]


def f_statistic(tau_hat: np.ndarray, w: np.ndarray, q2: QMatrix) -> float:
    """Partial F ratio of the weighted block effects for one assignment.

    Raises ZeroDenominator when the residual beyond the full basis vanishes.
    """
    tau_hat = np.asarray(tau_hat, dtype=float)[None, :]
    qm = _covariate_block(q2)
    k = q2.added_covariate_rank
    f = _f_values(tau_hat, np.asarray(w, dtype=float), qm, q2.basis, q2.n_blocks - q2.rank, k)[0]
    if np.isinf(f):
        raise ZeroDenominator("residual sum of squares beyond the basis is zero")
    return float(f)


def _f_values(
    t_mat: np.ndarray,
    w: np.ndarray,
    qm: np.ndarray,
    basis: np.ndarray,
    df_den: int,
    k: int,
) -> np.ndarray:
    """F for each row of a (..., draws, B) array of block effects; inf on zero residual.

    ``qm`` and ``basis`` are the (..., B, K) and (..., B, L) orthonormal
    factors of the covariate block and of the full basis, so each row costs
    O(B (K + L)). Leading replicate axes broadcast as in matmul.
    """
    v = t_mat * w
    num = np.square(v @ qm).sum(axis=-1)
    resid = (v @ basis) @ basis.swapaxes(-1, -2)
    resid -= v  # H v - v: only its square norm is used
    den = np.einsum("...j,...j->...", resid, resid)
    scale = np.einsum("...j,...j->...", v, v)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = (num / den) * (df_den / k)
    f[den <= DENOMINATOR_TOL * scale] = np.inf
    return f


def _replay_threshold(t: np.ndarray) -> np.ndarray:
    """Replays with F at or above this count against an observed F of ``t``.

    Ties within 1e-12 relative count in favor of the null; an infinite ``t``
    (zero residual) counts only the replays that are degenerate too.
    """
    with np.errstate(invalid="ignore"):  # inf - inf, replaced below
        return np.where(np.isfinite(t), t - 1e-12 * np.abs(t), np.inf)


def _exact_chunk(args) -> tuple[int, int]:
    start, stop, options, strides, counts, w, qm, basis, df_den, k, thresh = args
    flat = np.arange(start, stop, dtype=np.int64)
    t_mat = np.empty((flat.shape[0], len(options)))
    for i, opts in enumerate(options):
        t_mat[:, i] = opts[(flat // strides[i]) % counts[i]]
    f = _f_values(t_mat, w, qm, basis, df_den, k)
    return int(np.sum(f >= thresh)), flat.shape[0]


def _mc_chunk_sizes(groups: list, n_blocks: int, max_draws: int) -> list[int]:
    """Draws of each Monte Carlo chunk; chunk c samples from ``chunk_rng(seed, c)``.

    A chunk holds about CELLS cells of block effects and untabled blocks' keys.
    """
    width = n_blocks + sum(r.size for _, _, r, _, table in groups if table is None)
    rows = max(1, CELLS // width)
    return [min(rows, max_draws - c * rows) for c in range(math.ceil(max_draws / rows))]


def _mc_chunk(args) -> tuple[int, int]:
    seed, chunk_index, m, groups, w, qm, basis, df_den, k, thresh = args
    t_mat = _sample_effects(chunk_rng(seed, chunk_index), groups, m)
    f = _f_values(t_mat, w, qm, basis, df_den, k)
    return int(np.sum(f >= thresh)), m


def permutation_test(
    design: BlockDesign,
    data: AssignmentAndOutcomes,
    q2: QMatrix,
    max_draws: int = 10_000,
    seed: int = 0,
    threads: int = 1,
) -> HetTestResult:
    """Randomization p-value for the constant-treatment-effect null.

    Enumerates the assignment space exactly when it holds at most
    ``max_draws`` assignments; otherwise samples ``max_draws`` assignments
    with the add-one convention. A space with a block whose table of treated
    subsets exceeds ``EXACT_OPTION_CELLS`` cells (C(n, k) * k) is sampled
    too, with a note. Ties count in favor of the null. A
    degenerate observed statistic (zero residual beyond the basis) is
    treated as infinite, so its p-value counts only the replays that are
    themselves degenerate, and a note records the condition. Raises
    InputError when ``max_draws`` is below one.
    """
    if max_draws < 1:
        raise InputError(f"max_draws must be at least 1, got {max_draws}")
    w = block_weights(design)
    effects = block_effects(design, data)
    qm = _covariate_block(q2)
    k = q2.added_covariate_rank
    df_den = design.n_blocks - q2.rank

    notes: list[str] = []
    t = _f_values(effects.tau_hat[None, :], w, qm, q2.basis, df_den, k)[0]
    if np.isinf(t):
        notes.append(
            "observed residual beyond the basis is zero; p-value is the smallest attainable"
        )
    thresh = _replay_threshold(t)

    total = n_assignments(design)
    exact = total <= max_draws
    cells = max(math.comb(n, kt) * kt for n, kt, *_ in design.size_groups)
    if exact and cells > EXACT_OPTION_CELLS:
        exact = False
        notes.append(
            f"exact enumeration of {total} assignments needs a {cells}-cell option table for "
            f"one block, above the limit of {EXACT_OPTION_CELLS}; sampled {max_draws} instead"
        )
    observed = np.concatenate(data.responses)
    groups = _option_groups(design, observed, observed, math.inf if exact else OPTION_CELLS)
    order = np.concatenate([idx for idx, *_ in groups])
    fixed = (w[order], qm[order], q2.basis[order], df_den, k, thresh)
    if exact:
        options = [row for *_, table in groups for row in table]
        counts = np.array([o.shape[0] for o in options], dtype=np.int64)
        strides = np.append(np.cumprod(counts[:0:-1])[::-1], 1)  # products of later counts
        args = [
            (s, min(s + CHUNK, total), options, strides, counts, *fixed)
            for s in range(0, total, CHUNK)
        ]
        results = map_chunks(_exact_chunk, args, threads)
    else:
        sizes = _mc_chunk_sizes(groups, design.n_blocks, max_draws)
        args = [(seed, c, m, groups, *fixed) for c, m in enumerate(sizes)]
        results = map_chunks(_mc_chunk, args, threads)
    hits = sum(h for h, _ in results)
    draws = sum(m for _, m in results)
    return HetTestResult(
        f_observed=float(t),
        p_value=hits / draws if exact else (1 + hits) / (1 + draws),
        draws=draws,
        exact=exact,
        numerator_df=k,
        denominator_df=df_den,
        seed=None if exact else int(seed),
        notes=tuple(notes),
    )
