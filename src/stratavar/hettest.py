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

The Monte Carlo path draws chunk c of its replays from ``chunk_rng(seed,
c)`` and scores it with the same guard (:func:`_replay_hits`): each block
group's effects add their GEMM term to P and their square norms to S, and a
chunk with a draw the guard does not clear is scored again by the formula.
The power study scores a sub-batch of replicates at once
(:func:`_batch_hits`): each replicate tables the sums of runs of blocks
with the exact path's builder, and a replay adds one drawn row per run.
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
SUPER_ROWS = 128  # option rows of one super-block's table of sums in _batch_hits
REPLAY_REPS = 4  # replicates whose tables one run of _batch_hits pieces shares
PIECE_CELLS = 2 * TILE_CELLS  # (replicates, draws, B) cells of one piece of replays


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


def _table_sums(terms: list, shape: tuple) -> np.ndarray:
    """P and S of every index of the mixed radix over ``terms``, as in ``_digit_sums``.

    ``terms[i]`` holds block i's (C_i, *shape) rows v [basis row | v], any
    replicate axes before the width L + 1; the (prod C_i, *shape) table is
    built by repeated broadcast-add, O(width) work per row of the result.
    """
    table = terms[0] if terms else np.zeros((1, *shape))
    for term in terms[1:]:
        table = (table[:, None] + term[None]).reshape(-1, *shape)
    return table


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
    hit, clear = _clear_hits(num, den, s, delta, df_den / k, thresh)
    hits = int(np.count_nonzero(hit))

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
    terms = [np.column_stack([vals[i][:, None] * basis[i], vals[i] * vals[i]]) for i in trailing]
    trail = _table_sums(terms, (width + 1,))
    trail_p, trail_s = np.ascontiguousarray(trail[:, :-1]), np.ascontiguousarray(trail[:, -1])
    n_lead = math.prod(counts[i] for i in leading)
    rows = max(1, min(budget, TILE_CELLS // n_trail))  # leading indices of a tile
    fixed = (
        ([vals[i] for i in leading], [basis[i] for i in leading]),
        trail_p, trail_s, q1_rank, _exact_error(basis), options, strides, w, basis, thresh,
    )
    return [(lo, min(lo + rows, n_lead), *fixed) for lo in range(0, n_lead, rows)]


def _exact_error(basis: np.ndarray) -> np.ndarray:
    """Allowed gap, per unit of |v|^2, between square norms of ``_exact_tile`` and ``_f_values``.

    Both form |Q_M' v|^2 and the residual from sums of at most B + 2 terms,
    in any order, over L <= B columns, whose worst-case rounding is below
    4 eps (B + 2)(L + 1) |v|^2 each (on fuzzed designs the gap stays under
    1% of the allowance). The two residual forms also differ by
    v'U (U'U - I) U'v when the (..., B, L) U is not exactly orthonormal.
    """
    b, width = basis.shape[-2:]
    gram = basis.swapaxes(-1, -2) @ basis - np.eye(width)
    defect = np.sqrt(np.einsum("...ij,...ij->...", gram, gram))
    return 8.0 * np.finfo(float).eps * (b + 2) * (width + 1) + 2.0 * defect * (1.0 + defect)


def _clear_hits(num, den, s, delta, ratio, thresh) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the clear hits and of the cells whose F is clearly on one side of ``thresh``.

    ``num`` and ``den`` are the explained square norm |P_M|^2 and the
    residual S - |P|^2 of each cell, formed from projection sums; F is
    num / den * ``ratio`` (df_den / k). The residual cancels when v nearly
    lies in the basis, so a cell is clear only when its residual is clearly
    above the degenerate cut and its F clearly on one side of ``thresh``:
    "clearly" allows ``delta`` * S of error in each square norm, which
    bounds the rounding of the projection sums and of ``_f_values`` both
    (see ``_exact_error``). ``_f_values`` decides every clear cell the same
    way, so only the others need scoring by it. ``delta``, ``ratio`` and
    ``thresh`` broadcast against the cells. All three arrays are overwritten.
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
    return clear & (f >= thresh), clear


def _mc_chunk_sizes(groups: list, n_blocks: int, max_draws: int) -> list[int]:
    """Draws of each Monte Carlo chunk; chunk c samples from ``chunk_rng(seed, c)``.

    A chunk holds about CELLS cells of block effects and untabled blocks' keys.
    """
    width = n_blocks + sum(r.size for _, _, r, _, table in groups if table is None)
    rows = max(1, CELLS // width)
    return [min(rows, max_draws - c * rows) for c in range(math.ceil(max_draws / rows))]


def _replay_hits(groups: list, w, basis, q1_rank: int, thresh, delta, chunk: tuple) -> int:
    """Hits at or above F ``thresh`` among one Monte Carlo chunk of replays.

    ``chunk`` is ``(seed, c, m)``: m replays drawn by ``_draw_options``
    from ``chunk_rng(seed, c)``. ``groups`` are as for ``_drawn_effects``,
    and ``w`` and the basis [U_q1 | Q_M] have their rows in group order. Each
    group adds its GEMM term to P = v [U_q1 | Q_M] and its square norms to
    S = |v|^2, in runs of draws of at most ``TILE_CELLS`` cells, and
    :func:`_clear_hits` scores them with ``delta``. If it leaves any replay
    unclear, all are scored again by ``_f_values``: a GEMM's rounding of one
    row can depend on the rows batched with it, so only the whole batch
    reproduces the count of that formula bit for bit.
    """
    seed, c, m = chunk
    draws = _draw_options(chunk_rng(seed, c), groups, m)
    p, s = np.zeros((m, basis.shape[1])), np.zeros(m)
    start = 0
    for group, d in zip(groups, draws):
        stop = start + group[0].shape[0]
        w_g, basis_g = w[start:stop], basis[start:stop]
        rows = max(1, TILE_CELLS // (stop - start))  # draws whose temporaries stay in cache
        for i in range(0, m, rows):
            v = _group_effects(group, d[i : i + rows])
            v *= w_g
            p[i : i + rows] += v @ basis_g
            s[i : i + rows] += np.einsum("ij,ij->i", v, v)
        start = stop
    qm, df_den = basis[:, q1_rank:], w.shape[0] - basis.shape[1]
    p1, pm = p[:, :q1_rank], p[:, q1_rank:]
    num = np.einsum("ij,ij->i", pm, pm)
    den = s - (np.einsum("ij,ij->i", p1, p1) + num)
    hit, clear = _clear_hits(num, den, s, delta, df_den / qm.shape[1], thresh)
    if not clear.all():
        t_mat = _drawn_effects(groups, draws)
        return int(np.sum(_f_values(t_mat, w, qm, basis, df_den, qm.shape[1]) >= thresh))
    return int(np.count_nonzero(hit))


def _super_blocks(counts: list) -> tuple[list, list]:
    """Runs of consecutive blocks of at most SUPER_ROWS option rows (or one block); their rows."""
    runs, rows = [], []
    for i, c in enumerate(counts):
        if not rows or rows[-1] * c > SUPER_ROWS:
            runs, rows = runs + [[]], rows + [1]
        runs[-1].append(i)
        rows[-1] *= c
    return runs, rows


def _replay_pieces(reps: int, n_blocks: int, max_draws: int) -> list[tuple[int, int, int, int]]:
    """(first replicate, replicates, first draw, draws) of each piece of ``_batch_hits``.

    Runs of REPLAY_REPS replicates take their draws in equal ranges of at
    most about PIECE_CELLS cells of (replicates, draws, B) effects.
    """
    pieces = math.ceil(max_draws * min(reps, REPLAY_REPS) * n_blocks / PIECE_CELLS)
    step = math.ceil(max_draws / pieces)
    runs = [(j, min(REPLAY_REPS, reps - j)) for j in range(0, reps, REPLAY_REPS)]
    return [(j, r, d, min(step, max_draws - d)) for j, r in runs for d in range(0, max_draws, step)]


def _batch_hits(rng, tables: list, w, q1_rank: int, bases: list, thresh, live, max_draws: int):
    """(R, specs) hits among ``max_draws`` replays of each of R replicates.

    ``tables`` are the (R, G, C) option tables of ``_option_groups``; ``w`` and
    each spec's (R, B, L) basis [U_q1 | Q_M] have their rows in group order.
    Pair (j, s) of the (R, specs) ``live`` mask counts the replays with F at
    or above ``thresh[j, s]``; the others count 0. Each piece of
    ``_replay_pieces`` draws, for each super-block of ``_super_blocks``, a
    uniform (replicates, draws) index into its option rows (``uint16`` where
    they fit), its first block the most significant digit, so every replay
    is a uniform assignment. Its P = v [U_q1 | Q_M of each spec] and
    S = |v|^2 are the sum of the rows it picks from the super-blocks'
    ``_table_sums`` tables, scored by ``_clear_hits``; a pair with a replay
    the guard leaves unclear is scored again by ``_f_values`` on the piece's
    effects, decoded from the option tables, so each count is that formula's.
    """
    opts = [t[:, g] for t in tables for g in range(t.shape[1])]  # (R, C) options of each block
    sbs, rows = _super_blocks([o.shape[-1] for o in opts])
    radix = [[opts[b].shape[-1] for b in sb] for sb in sbs]
    starts = np.cumsum([0] + rows[:-1])
    cols = np.cumsum([0, q1_rank] + [b.shape[-1] - q1_rank for b in bases])  # U_q1, each Q_M, S
    width = cols[-1] + 1
    parts = np.eye(len(cols))[:-1].repeat(np.append(np.diff(cols), 1), axis=1)  # norms by a GEMM
    k = np.diff(cols)[1:]
    ratio = ((len(w) - q1_rank - k) / k)[:, None]
    deltas = np.array([_exact_error(b) for b in bases]).reshape(-1, live.shape[0]).T
    hits, alive = np.zeros(live.shape, dtype=np.int64), live.any(axis=1).tolist()
    # 16-bit indices where they fit: numpy draws them about twice as fast
    dtypes = [np.uint16 if n <= 1 << 16 else np.int64 for n in rows]
    with np.errstate(invalid="ignore", over="ignore"):  # a replicate not live may hold any value
        for j0, r, d0, m in _replay_pieces(live.shape[0], len(opts), max_draws):
            draws = [rng.integers(0, n, (r, m), dt) for n, dt in zip(rows, dtypes)]
            run = slice(j0, j0 + r)
            if not any(alive[run]):
                continue
            if d0 == 0:  # the run's tables, built with the replicates inside each row
                qms = [b[run, :, q1_rank:] for b in bases[1:]]
                joint = np.concatenate([bases[0][run], *qms], axis=-1)
                terms, start = [], 0
                for t in tables:  # (G, C, r, L + 1) terms v [row | v] of each group
                    v = (t[run] * w[start : start + t.shape[1], None]).transpose(1, 2, 0)[..., None]
                    row = joint[:, start : start + t.shape[1]].transpose(1, 0, 2)[:, None]
                    terms += list(np.concatenate([v * row, v * v], axis=-1))
                    start += t.shape[1]
                table = np.empty((r, sum(rows), width))
                for sb, lo, count in zip(sbs, starts, rows):  # (count, r, L + 1) each
                    sums = _table_sums([terms[i] for i in sb], (r, width))
                    table[:, lo : lo + count] = sums.swapaxes(0, 1)
                table = table.reshape(-1, width)
                offsets = np.arange(r)[:, None] * sum(rows) + starts[:, None, None]
                args = deltas[run, :, None], ratio, thresh[run, :, None]
            p = table.take(draws[0] + offsets[0], axis=0)
            for d, off in zip(draws[1:], offsets[1:]):
                p += table.take(d + off, axis=0)
            s = np.repeat(p[:, None, :, -1], len(bases), axis=1)
            norms = parts @ np.square(p, out=p).swapaxes(-1, -2)  # (r, 1 + specs, m)
            hit, clear = _clear_hits(norms[:, 1:], (s - norms[:, :1]) - norms[:, 1:], s, *args)
            n = np.count_nonzero(hit, axis=-1)
            hits[run] += n
            for j, i in np.argwhere(live[run] & ~clear.all(axis=-1)) if not clear.all() else ():
                digits = [x for d, rad in zip(draws, radix) for x in np.unravel_index(d[j], rad)]
                t_mat = np.column_stack([o[j0 + j, x] for o, x in zip(opts, digits)])
                basis = bases[i][j0 + j]
                f = _f_values(t_mat, w, basis[:, q1_rank:], basis, len(w) - q1_rank - k[i], k[i])
                hits[j0 + j, i] += np.count_nonzero(f >= thresh[j0 + j, i]) - n[j, i]
    return hits * live


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
        score = (groups, w_g, basis_g, q2.q1_rank, thresh, _exact_error(basis_g))
        chunks = [(seed, c, m) for c, m in enumerate(_mc_chunk_sizes(groups, len(w), max_draws))]
        hits = sum(map_chunks(functools.partial(_replay_hits, *score), chunks, threads))
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
