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
term per block, so the blocks split into a leading and a trailing part
whose partial sums are each tabled once by broadcast-add. A tile pairs a
range of leading sums with every trailing one: the two sides' square norms
plus one small GEMM give |Q_M' v|^2 and |U' v|^2, and the residual is
S - |U' v|^2, at O(K + L) per assignment instead of O(B L). That difference
cancels when v nearly lies in the basis, so an assignment whose F is within
a rounding bound of the threshold, or whose residual is not clearly above
the degenerate cut, is decoded and scored again by the per-assignment
formula; the count of replays at or above the threshold, and so the exact
p-value, is that of scoring every assignment with that formula. Blocks with
too many options for a table are decoded by range within each tile, so
every temporary stays within ``CELLS`` cells.
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


def _exact_layout(counts: list[int], budget: int) -> tuple[list[int], list[int], list[int]]:
    """Blocks (by position) of the outer, high and low parts of an exact enumeration.

    The high and low tables hold at most ``budget`` rows each, the low one
    about the square root of the space that the tabled blocks span.
    Blocks with more options than ``budget``, and any that fit neither
    table, are outer digits, decoded by range in each tile. The layout
    depends only on the option counts.
    """
    tabled = [i for i, c in enumerate(counts) if c <= budget]
    target = min(budget, math.isqrt(math.prod(counts[i] for i in tabled)))
    outer, high, low = [i for i, c in enumerate(counts) if c > budget], [], []
    n_high = n_low = 1
    for i in reversed(tabled):
        if n_low * counts[i] <= target:
            low.append(i)
            n_low *= counts[i]
        elif n_high * counts[i] <= budget:
            high.append(i)
            n_high *= counts[i]
        else:
            outer.append(i)
    return sorted(outer), sorted(high), sorted(low)


def _exact_tile(args) -> tuple[int, int]:
    """Hits among the assignments of one tile: outer indices o0..o1-1, high rows h0..h1-1.

    A tile scores every (outer, high) row against every low row from the
    partial sums: with P = v [U_q1 | Q_M] and S = |v|^2 split as high side
    plus low side, |P_M|^2 and |P|^2 are the two side norms plus twice one
    small GEMM, and the residual is S - |P|^2. That sum cancels, so a row is
    scored again by ``_f_values`` on its decoded assignment unless its
    residual is clearly above the degenerate cut and its F clearly on one
    side of ``thresh``; "clearly" allows ``delta`` * S of error in each
    square norm, which bounds the rounding of this path and of
    ``_f_values`` both (see ``_exact_error``).
    """
    o0, o1, h0, h1, outer, high_p, high_s, low_p, low_s, q1_rank, delta, replay = args
    options, strides, w, qm, basis, df_den, k, thresh = replay
    width = low_p.shape[1]
    p_o, s_o = _digit_sums(*outer, width, o0, o1)
    ph = (p_o[:, None, :] + high_p[None, h0:h1]).reshape(-1, width)
    sh = (s_o[:, None] + high_s[None, h0:h1]).reshape(-1)
    hm, lm, h1q, l1q = ph[:, q1_rank:], low_p[:, q1_rank:], ph[:, :q1_rank], low_p[:, :q1_rank]

    num = (2.0 * hm) @ lm.T  # |P_M|^2, the explained square norm
    num += np.einsum("ij,ij->i", hm, hm)[:, None]
    num += np.einsum("ij,ij->i", lm, lm)
    den = (2.0 * h1q) @ l1q.T  # then |P|^2, then the residual S - |P|^2
    den += np.einsum("ij,ij->i", h1q, h1q)[:, None]
    den += np.einsum("ij,ij->i", l1q, l1q)
    den += num
    lim = np.add.outer(sh, low_s)
    np.subtract(lim, den, out=den)
    lim *= delta  # error allowance of each square norm
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f = num
        f /= den
        f *= df_den / k
        clear = den > lim * (DENOMINATOR_TOL / delta + 2.0)
        slack = np.abs(f)
        slack += df_den / k
        slack *= lim
        den -= lim
        slack /= den
        clear &= np.abs(f - thresh) > slack
    hits = int(np.count_nonzero(clear & (f >= thresh)))

    redo = np.flatnonzero(~clear)
    batch = max(1, CELLS // len(options))
    for start in range(0, redo.shape[0], batch):
        row, low = np.divmod(redo[start : start + batch], low_p.shape[0])
        o, h = np.divmod(row, h1 - h0)
        flat = ((o + o0) * high_p.shape[0] + h + h0) * low_p.shape[0] + low
        t_mat = np.empty((flat.shape[0], len(options)))
        for i, opts in enumerate(options):
            t_mat[:, i] = opts[(flat // strides[i]) % opts.shape[0]]
        hits += int(np.sum(_f_values(t_mat, w, qm, basis, df_den, k) >= thresh))
    return hits, int(clear.size)


def _exact_tiles(options: list, w, qm, basis, df_den, k, thresh) -> list:
    """Arguments of ``_exact_tile`` for every tile of an exact enumeration.

    ``options`` holds each block's option table and ``w``, ``qm``, ``basis``
    their rows, all in group order. High and low tables hold at most
    CELLS // (L + 1) rows and a tile at most TILE_CELLS assignments, or
    one row of leading sums, so every temporary stays within CELLS cells;
    the tiles depend only on the design.
    """
    width = basis.shape[1]
    vals = [o * wi for o, wi in zip(options, w)]  # entries of v = W tau, as _f_values forms them
    counts = [o.shape[0] for o in options]
    outer, high, low = _exact_layout(counts, CELLS // (width + 1))
    layout = outer + high + low
    strides = np.empty(len(options), dtype=np.int64)
    strides[layout] = [math.prod(counts[j] for j in layout[n + 1 :]) for n in range(len(layout))]
    high_p, high_s = _table_sums([vals[i] for i in high], [basis[i] for i in high], width)
    low_p, low_s = _table_sums([vals[i] for i in low], [basis[i] for i in low], width)
    n_outer, n_high, n_low = (math.prod(counts[i] for i in part) for part in (outer, high, low))
    rows = max(1, min(CELLS // (width + 1), TILE_CELLS // n_low))  # high-side rows of a tile
    if n_high <= rows:
        step = rows // n_high
        spans = [(o, min(o + step, n_outer), 0, n_high) for o in range(0, n_outer, step)]
    else:
        spans = [
            (o, o + 1, h, min(h + rows, n_high))
            for o in range(n_outer)
            for h in range(0, n_high, rows)
        ]
    fixed = (
        ([vals[i] for i in outer], [basis[i] for i in outer]),
        high_p, high_s, low_p, low_s, width - qm.shape[1], _exact_error(basis),
        (options, strides, w, qm, basis, df_den, k, thresh),
    )
    return [(*span, *fixed) for span in spans]


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
    observed = np.concatenate(data.responses)
    groups = _option_groups(design, observed, observed, math.inf if exact else OPTION_CELLS)
    order = np.concatenate([idx for idx, *_ in groups])
    fixed = (w[order], qm[order], q2.basis[order], df_den, k, thresh)
    if exact:
        args = _exact_tiles([row for *_, table in groups for row in table], *fixed)
        results = map_chunks(_exact_tile, args, threads)
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
