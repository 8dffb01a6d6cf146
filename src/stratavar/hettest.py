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

Exact enumeration never decodes an assignment block by block. F depends on
v only through P = v' [U_q1 | Q_M] and S = |v|^2, and v is a sum of one
term per block, so the blocks split into two parts: the partial sums of
the trailing blocks are tabled once by broadcast-add, and each tile
decodes those of a range of leading indices and pairs them with every
trailing one. The two sides' square norms plus one small GEMM give
|Q_M' v|^2 and |U' v|^2, and the residual is S - |U' v|^2, at O(K + L) per
assignment instead of O(B L). That difference cancels when v nearly lies
in the basis, so an assignment whose F is within a rounding bound of the
threshold, or whose residual is not clearly above the degenerate cut, is
decoded and scored again by the per-assignment formula; the count of
replays at or above the threshold, and so the exact p-value, is that of
scoring every assignment with that formula. The trailing table and every
tile stay within ``CELLS`` cells.

One driver, :func:`_mc_hits`, runs the Monte Carlo path of the test and
each replicate of the power study: chunk c of the replays comes from
``chunk_rng(seed, c)`` and is scored with the same guard
(:func:`_replay_hits`). Each block group's sampled effects add their GEMM
term to P and their square norms to S, so no draws x B matrix is formed,
and the power study scores every q-spec with one GEMM against
[U_q1 | Q_M of each]. A chunk with any draw the guard does not clear is
scored again as a whole by the per-assignment formula, so the hit count
is that formula's, bit for bit, and seeded p-values do not change.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._util import chunk_rng, map_chunks
from .design import AssignmentAndOutcomes, BlockDesign, block_weights, n_assignments
from .errors import BadQPair, InputError, ZeroDenominator
from .estimators import (
    _draw_options,
    _drawn_effects,
    _group_effects,
    _option_groups,
    block_effects,
)
from .projection import QMatrix

DENOMINATOR_TOL = 1e-12
CELLS = 1 << 18  # cells of a Monte Carlo chunk (draws x B) or exact-path array: 2 MB per matrix
OPTION_CELLS = 256  # largest C(n, k) * k for which a block gets an option table
EXACT_OPTION_CELLS = 1 << 20  # largest C(n, k) * k of one block that exact enumeration tables
# Assignments an exact tile scores at once (when a row of leading sums
# spans fewer): at 128 KB per temporary a tile stays in cache, and the
# benchmark's exact files scored 1.8 times as fast as with 2^18 (2-core host).
TILE_CELLS = 1 << 14
# Largest max_draws accepted: the Monte Carlo chunk list and the exact tile
# list grow with it, and 10^8 draws already put a p-value's Monte Carlo
# standard error below 5e-5.
MAX_DRAWS = 10**8


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


def _digit_sums(vals: list, rows: list, width: int, start: int, stop: int) -> tuple:
    """Partial sums P and S of the mixed-radix indices ``start``..``stop - 1``.

    Digit d of block i, the first block most significant, adds
    ``vals[i][d] * rows[i]`` to P and ``vals[i][d] ** 2`` to S. Returns the
    (stop - start, L) P and the (stop - start,) S.
    """
    idx = np.arange(start, stop, dtype=np.int64)
    p = np.zeros((idx.shape[0], width))
    s = np.zeros(idx.shape[0])
    stride = math.prod(v.shape[0] for v in vals)
    for v, row in zip(vals, rows):
        stride //= v.shape[0]
        d = v[(idx // stride) % v.shape[0]]
        p += d[:, None] * row
        s += d * d
    return p, s


def _table_sums(vals: list, rows: list, width: int) -> tuple:
    """P and S of every index of the mixed radix over ``vals``, as in ``_digit_sums``.

    Built by repeated broadcast-add, O(width) work per row of the result.
    """
    p, s = np.zeros((1, width)), np.zeros(1)
    for v, row in zip(vals, rows):
        p = (p[:, None, :] + v[None, :, None] * row).reshape(-1, width)
        s = (s[:, None] + v * v).reshape(-1)
    return p, s


def _exact_tile(args) -> tuple[int, int]:
    """Hits among one tile's assignments: leading indices lo..hi-1, each with every trailing row.

    A tile decodes the partial sums of its leading range and scores each
    against every trailing row: with P = v [U_q1 | Q_M] and S = |v|^2 split
    as leading plus trailing side, |P_M|^2 and |P|^2 are the two side norms
    plus twice one small GEMM, and the residual is S - |P|^2. A cell that
    :func:`_clear_hits` does not clear is scored again by ``_f_values`` on
    its decoded assignment.
    """
    lo, hi, leading, trail_p, trail_s, q1_rank, delta, options, strides, w, basis, thresh = args
    qm, df_den = basis[:, q1_rank:], basis.shape[0] - basis.shape[1]
    k = qm.shape[1]
    lead_p, lead_s = _digit_sums(*leading, trail_p.shape[1], lo, hi)
    lm, tm = lead_p[:, q1_rank:], trail_p[:, q1_rank:]
    l1q, t1q = lead_p[:, :q1_rank], trail_p[:, :q1_rank]

    num = (2.0 * lm) @ tm.T  # |P_M|^2, the explained square norm
    num += np.einsum("ij,ij->i", lm, lm)[:, None]
    num += np.einsum("ij,ij->i", tm, tm)
    den = (2.0 * l1q) @ t1q.T  # then |P|^2, then the residual S - |P|^2
    den += np.einsum("ij,ij->i", l1q, l1q)[:, None]
    den += np.einsum("ij,ij->i", t1q, t1q)
    den += num
    s = np.add.outer(lead_s, trail_s)
    np.subtract(s, den, out=den)
    hits, clear = _clear_hits(num, den, s, delta, df_den / k, thresh)

    redo = np.flatnonzero(~clear)
    batch = max(1, CELLS // len(options))
    for start in range(0, redo.shape[0], batch):
        row, trail = np.divmod(redo[start : start + batch], trail_p.shape[0])
        flat = (row + lo) * trail_p.shape[0] + trail
        t_mat = np.empty((flat.shape[0], len(options)))
        for i, opts in enumerate(options):
            t_mat[:, i] = opts[(flat // strides[i]) % opts.shape[0]]
        hits += int(np.sum(_f_values(t_mat, w, qm, basis, df_den, k) >= thresh))
    return hits, int(clear.size)


def _exact_tiles(options: list, w, q1_rank: int, basis, thresh) -> list:
    """Arguments of ``_exact_tile`` for every tile of an exact enumeration.

    ``options`` holds each block's option table, and ``w`` and the basis
    [U_q1 | Q_M] their rows, all in group order. The trailing blocks, picked
    from the last block back, form one table of at most about the square
    root of the space and at most CELLS // (L + 1) rows; the other blocks
    lead. A tile holds at most TILE_CELLS assignments, or one leading index,
    so every temporary stays within CELLS cells. The tiles depend only on
    the design.
    """
    width = basis.shape[1]
    budget = CELLS // (width + 1)
    vals = [o * wi for o, wi in zip(options, w)]  # entries of v = W tau, as _f_values forms them
    counts = [o.shape[0] for o in options]
    target = min(budget, math.isqrt(math.prod(c for c in counts if c <= budget)))
    trailing, n_trail = [], 1
    for i in reversed(range(len(counts))):
        if n_trail * counts[i] <= target:
            trailing.insert(0, i)
            n_trail *= counts[i]
    leading = [i for i in range(len(counts)) if i not in trailing]
    layout = leading + trailing
    strides = np.empty(len(options), dtype=np.int64)
    strides[layout] = [math.prod(counts[j] for j in layout[n + 1 :]) for n in range(len(layout))]
    trail_p, trail_s = _table_sums([vals[i] for i in trailing], [basis[i] for i in trailing], width)
    n_lead = math.prod(counts[i] for i in leading)
    rows = max(1, min(budget, TILE_CELLS // n_trail))  # leading indices of a tile
    fixed = (
        ([vals[i] for i in leading], [basis[i] for i in leading]),
        trail_p, trail_s, q1_rank, _exact_error(basis), options, strides, w, basis, thresh,
    )
    return [(lo, min(lo + rows, n_lead), *fixed) for lo in range(0, n_lead, rows)]


def _exact_error(basis: np.ndarray) -> float:
    """Allowed gap, per unit of |v|^2, between square norms of ``_exact_tile`` and ``_f_values``.

    Both form |Q_M' v|^2 and the residual from sums of at most B + 2 terms
    over L <= B columns, whose worst-case rounding is below
    4 eps (B + 2)(L + 1) |v|^2 each (on fuzzed designs the gap stays under
    1% of the allowance). The two residual forms also differ by
    v'U (U'U - I) U'v when U is not exactly orthonormal.
    """
    b, width = basis.shape
    gram = basis.T @ basis - np.eye(width)
    defect = float(np.linalg.norm(gram))
    return 8.0 * np.finfo(float).eps * (b + 2) * (width + 1) + 2.0 * defect * (1.0 + defect)


def _clear_hits(num, den, s, delta: float, ratio: float, thresh) -> tuple[int, np.ndarray]:
    """Hits among the cells whose F is clearly on one side of ``thresh``, and their mask.

    ``num`` and ``den`` are the explained square norm |P_M|^2 and the
    residual S - |P|^2 of each cell, formed from projection sums; F is
    num / den * ``ratio`` (df_den / k). The residual cancels when v nearly
    lies in the basis, so a cell is clear only when its residual is clearly
    above the degenerate cut and its F clearly on one side of ``thresh``:
    "clearly" allows ``delta`` * S of error in each square norm, which
    bounds the rounding of the projection sums and of ``_f_values`` both
    (see ``_exact_error``). ``_f_values`` decides every clear cell the same
    way, so only the others need scoring by it. All three arrays are
    overwritten.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        clear = den > s * (DENOMINATOR_TOL + 2.0 * delta)
        s *= delta  # error allowance of each square norm
        f = num
        f /= den
        f *= ratio
        slack = np.abs(f)
        slack += ratio
        slack *= s
        den -= s
        slack /= den
        clear &= np.abs(f - thresh) > slack
    return int(np.count_nonzero(clear & (f >= thresh))), clear


def _mc_chunk_sizes(groups: list, n_blocks: int, max_draws: int) -> list[int]:
    """Draws of each Monte Carlo chunk; chunk c samples from ``chunk_rng(seed, c)``.

    A chunk holds about CELLS cells of block effects and untabled blocks' keys.
    """
    width = n_blocks + sum(r.size for _, _, r, _, table in groups if table is None)
    rows = max(1, CELLS // width)
    return [min(rows, max_draws - c * rows) for c in range(math.ceil(max_draws / rows))]


def _replay_hits(groups: list, w, q1_rank: int, specs: list, chunk: tuple) -> list[int]:
    """Hits of one Monte Carlo chunk for each ``(basis, thresh, delta)`` of ``specs``.

    ``chunk`` is ``(seed, c, m)``: m replays drawn by ``_draw_options``
    from ``chunk_rng(seed, c)``. ``groups`` are as for ``_drawn_effects``,
    without leading axes; ``w`` and every basis have their rows in group
    order, and the bases share their first ``q1_rank`` columns U_q1. The
    replays v = W tau are scored from their projection sums: each group adds
    its GEMM term to P = v [U_q1 | Q_M of every spec], and its square norms to
    S = |v|^2, in runs of draws of at most ``TILE_CELLS`` cells, so no
    (m, B) array is formed and every temporary stays in cache. If
    :func:`_clear_hits` leaves any replay unclear for a spec, all of them
    are scored again by ``_f_values`` for it: a GEMM's rounding of one row
    can depend on the rows batched with it, so only the whole batch
    reproduces the count of that formula bit for bit.
    """
    seed, c, m = chunk
    draws = _draw_options(chunk_rng(seed, c), groups, m)
    joint = np.concatenate([specs[0][0]] + [basis[:, q1_rank:] for basis, *_ in specs[1:]], axis=1)
    p, s = np.zeros((m, joint.shape[1])), np.zeros(m)
    start = 0
    for group, d in zip(groups, draws):
        stop = start + group[0].shape[0]
        w_g, basis_g = w[start:stop], joint[start:stop]
        rows = max(1, TILE_CELLS // (stop - start))  # draws whose temporaries stay in cache
        for i in range(0, m, rows):
            v = _group_effects(group, d[i : i + rows])
            v *= w_g
            p[i : i + rows] += v @ basis_g
            s[i : i + rows] += np.einsum("ij,ij->i", v, v)
        start = stop
    p1 = p[:, :q1_rank]
    explained_q1 = np.einsum("ij,ij->i", p1, p1)
    hits, col, t_mat = [], q1_rank, None
    for basis, thresh, delta in specs:
        qm, df_den = basis[:, q1_rank:], w.shape[0] - basis.shape[1]
        k = qm.shape[1]
        pm = p[:, col : col + k]
        num = np.einsum("ij,ij->i", pm, pm)
        den = s - (explained_q1 + num)
        n_hits, clear = _clear_hits(num, den, s.copy(), delta, df_den / k, thresh)
        if not clear.all():
            t_mat = _drawn_effects(groups, draws) if t_mat is None else t_mat
            n_hits = int(np.sum(_f_values(t_mat, w, qm, basis, df_den, k) >= thresh))
        hits.append(n_hits)
        col += k
    return hits


def _mc_hits(
    seed, groups: list, w, q1_rank: int, bases: list, thresholds: list, max_draws: int, threads: int
) -> list[int]:
    """Hits per basis and F threshold among ``max_draws`` replays sampled from ``seed``.

    ``groups`` come from :func:`_option_groups`; ``w`` and each (B, L) basis
    [U_q1 | Q_M], all sharing the first ``q1_rank`` columns, have their rows
    in group order. Chunk c of ``_mc_chunk_sizes`` is drawn from
    ``chunk_rng(seed, c)`` and scored by :func:`_replay_hits`, so the counts
    do not depend on ``threads``.
    """
    specs = [(basis, thresh, _exact_error(basis)) for basis, thresh in zip(bases, thresholds)]
    chunks = [(seed, c, m) for c, m in enumerate(_mc_chunk_sizes(groups, w.shape[0], max_draws))]
    parts = map_chunks(functools.partial(_replay_hits, groups, w, q1_rank, specs), chunks, threads)
    return [sum(hits) for hits in zip(*parts)]


def _check_max_draws(max_draws: int) -> None:
    """Raise InputError unless 1 <= max_draws <= MAX_DRAWS."""
    if max_draws < 1:
        raise InputError(f"max_draws must be at least 1, got {max_draws}")
    if max_draws > MAX_DRAWS:
        raise InputError(f"max_draws must be at most {MAX_DRAWS}, got {max_draws}")


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
    InputError when ``max_draws`` is below one or above ``MAX_DRAWS``.
    """
    _check_max_draws(max_draws)
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
    groups = _option_groups(design, data.r, data.r, math.inf if exact else OPTION_CELLS)
    order = design._group_order
    w_g, basis_g = w[order], q2.basis[order]  # rows in group order
    if exact:
        options = [row for *_, table in groups for row in table]
        args = _exact_tiles(options, w_g, q2.q1_rank, basis_g, thresh)
        hits, draws = (sum(col) for col in zip(*map_chunks(_exact_tile, args, threads)))
    else:
        hits = _mc_hits(seed, groups, w_g, q2.q1_rank, [basis_g], [thresh], max_draws, threads)[0]
        draws = max_draws
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
