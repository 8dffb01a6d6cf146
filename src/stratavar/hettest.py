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

Every replay runs on one layout (:func:`_replays`). F depends on v only
through P = v' [U_q1 | Q_M] and S = |v|^2, and v has one term per block.
Blocks with an option table form super-blocks within their (size, treated
count) group, of at most ``SUPER_ROWS`` option rows together or one block
of more, and one flat table holds the P and S of every super-block's
rows. A replay's P and S are sums of its rows, so scoring it costs
O(K + L), not O(B L). Its residual S - |U' v|^2 cancels when v nearly
lies in the basis, so a replay whose F is within a rounding bound of the
threshold, or whose residual is not clearly above the degenerate cut, is
decoded and scored again by the per-assignment formula
(:func:`_formula_hits`): every count is that formula's.

Exact enumeration is the one-replicate case with every block tabled, each
super-block a mixed-radix digit. The trailing super-blocks' rows are
summed into one table of at most ``CELLS`` cells, and each tile pairs the
summed leading rows of a range of indices with every trailing row by one
small GEMM. A Monte Carlo replay (:func:`_replay_piece`) sums one drawn
row per super-block, plus the GEMM term of blocks drawn by keys. The
power study scores a sub-batch of replicates at once (:func:`_batch_hits`);
``permutation_test`` samples as its one-replicate case, piece c drawn
from ``chunk_rng(seed, c)``.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._util import _check_seed, chunk_rng, map_chunks
from .design import AssignmentAndOutcomes, BlockDesign, block_weights, n_assignments
from .errors import BadQPair, InputError, NumericalError, ZeroDenominator
from .estimators import _group_effects, _option_groups, block_effects
from .projection import QMatrix, _residual

DENOMINATOR_TOL = 1e-12
CELLS = 1 << 18  # cells of the exact path's trailing table: 2 MB
OPTION_CELLS = 256  # largest C(n, k) * k for which a block gets an option table
EXACT_OPTION_CELLS = 1 << 20  # largest C(n, k) * k of one block that exact enumeration tables
# Assignments an exact tile scores at once (when a row of leading sums
# spans fewer): at 128 KB per temporary a tile stays in cache, and the
# benchmark's exact files scored 1.8 times as fast as with 2^18 (2-core host).
TILE_CELLS = 1 << 14
# Largest max_draws accepted: the Monte Carlo piece list and the exact tile
# list grow with it, and 10^8 draws already put a p-value's Monte Carlo
# standard error below 5e-5.
MAX_DRAWS = 10**8
SUPER_ROWS = 128  # option rows of one super-block's table of replay sums
REPLAY_REPS = 8  # replicates whose tables one run of _batch_hits pieces shares
# Cells of a piece of replays' largest temporary, over its replicates and draws
PIECE_CELLS = 2 * TILE_CELLS


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


def _check_covariate_block(q2: QMatrix) -> None:
    """Raise BadQPair unless the q2 basis adds covariate columns to q1's."""
    if q2.added_covariate_rank < 1:
        raise BadQPair("basis adds no covariate columns beyond intercept and weights")


def f_statistic(tau_hat: np.ndarray, w: np.ndarray, q2: QMatrix) -> float:
    """Partial F ratio of the weighted block effects for one assignment.

    Raises ZeroDenominator when the residual beyond the full basis vanishes.
    """
    _check_covariate_block(q2)
    tau_hat = np.asarray(tau_hat, dtype=float)[None, :]
    f = _f_values(tau_hat, np.asarray(w, dtype=float), q2.basis, q2.q1_rank)[0]
    if np.isinf(f):
        raise ZeroDenominator("residual sum of squares beyond the basis is zero")
    return float(f)


def _f_values(t_mat: np.ndarray, w: np.ndarray, basis: np.ndarray, q1_rank: int) -> np.ndarray:
    """F for each row of a (..., draws, B) array of block effects; inf on zero residual.

    ``basis`` is a (..., B, L) q2 factor [U_q1 | Q_M] as ``q2_stack`` lays it
    out, U_q1 its first ``q1_rank`` columns: F has K = L - q1_rank and B - L
    degrees of freedom, and its residual is ``_residual``'s. Each row costs
    O(B L); leading replicate axes broadcast as in matmul.
    """
    b, width = basis.shape[-2:]
    v = t_mat * w
    num = np.square(v @ basis[..., q1_rank:]).sum(axis=-1)
    resid = _residual(v, basis)
    den = np.einsum("...j,...j->...", resid, resid)
    scale = np.einsum("...j,...j->...", v, v)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = (num / den) * ((b - width) / (width - q1_rank))
    f[den <= DENOMINATOR_TOL * scale] = np.inf
    return f


def _replay_threshold(t: np.ndarray) -> np.ndarray:
    """Replays with F at or above this count against an observed F of ``t``.

    Ties within 1e-12 relative count in favor of the null; an infinite ``t``
    (zero residual) counts only the replays that are degenerate too.
    """
    with np.errstate(invalid="ignore"):  # inf - inf, replaced below
        return np.where(np.isfinite(t), t - 1e-12 * np.abs(t), np.inf)


def _table_sums(terms: list, shape: tuple) -> np.ndarray:
    """Every sum of one row of each of ``terms``, the first term's the most significant.

    ``terms[i]`` holds (C_i, *shape) rows, such as a block's v [basis row |
    v] with any replicate axes before the width L + 1; the (prod C_i, *shape)
    table is built by repeated broadcast-add, O(width) work per row of it.
    """
    table = terms[0] if terms else np.zeros((1, *shape))
    for term in terms[1:]:
        table = (table[:, None] + term[None]).reshape(-1, *shape)
    return table


def _exact_tile(args) -> tuple[int, int]:
    """Hits among one tile's assignments: leading indices lo..hi-1, each with every trailing row.

    A tile decodes the leading super-blocks' digits of each of its indices
    and sums their rows, then scores each against every trailing row: with
    P = v [U_q1 | Q_M] and S = |v|^2 split as leading plus trailing side,
    |P_M|^2 and |P|^2 are the two side norms plus twice one small GEMM, and
    the residual is S - |P|^2. The cells :func:`_clear_hits` does not clear
    are decoded and scored again by :func:`_formula_hits`.
    """
    lo, hi, (rep, table, radix, leading, layout, trail) = args
    (_, ratio, _, delta, thresh, _), q1 = rep.score, rep.q1_rank
    digits = np.unravel_index(np.arange(lo, hi), radix[leading])
    lead = _summed(table, np.add(digits, np.cumsum([0, *radix])[leading, None]))
    lm, tm = lead[:, q1:-1], trail[:, q1:-1]
    l1q, t1q = lead[:, :q1], trail[:, :q1]

    num = (2.0 * lm) @ tm.T  # |P_M|^2, the explained square norm
    num += np.einsum("ij,ij->i", lm, lm)[:, None]
    num += np.einsum("ij,ij->i", tm, tm)
    den = (2.0 * l1q) @ t1q.T  # then |P|^2, then the residual S - |P|^2
    den += np.einsum("ij,ij->i", l1q, l1q)[:, None]
    den += np.einsum("ij,ij->i", t1q, t1q)
    den += num
    s = np.add.outer(lead[:, -1], trail[:, -1])
    np.subtract(s, den, out=den)
    hit, clear = _clear_hits(num, den, s, delta[0, 0], ratio[0, 0], thresh[0, 0])
    hits = int(np.count_nonzero(hit))

    redo = np.flatnonzero(~clear) + lo * trail.shape[0]  # flat indices over the layout
    if redo.size:
        digits = np.array(np.unravel_index(redo, radix[layout]))[np.argsort(layout)]
        sbs = [opts.shape[1] // kb for _, opts, kb in rep.runs]  # super-blocks of each run
        rows = [digits[end - n : end] for n, end in zip(sbs, np.cumsum(sbs))]
        hits += _formula_hits(rep, slice(None), 0, 0, np.empty((redo.size, len(rep.w))), rows)
    return hits, int(clear.size)


def _exact_tiles(rep: _Replays, table: np.ndarray) -> list:
    """Arguments of ``_exact_tile`` for every tile of the exact enumeration of ``rep``.

    ``rep`` holds one replicate with every block tabled, and ``table`` its
    flat super-block table; each super-block is one mixed-radix digit. The
    trailing super-blocks, taken largest (then last) first while they fit,
    form one table of at most about the square root of the space and at
    most CELLS // (L + 1) rows, summed from their rows of ``table``; the
    others lead. A tile holds at most TILE_CELLS assignments, or one leading
    index. The tiles depend only on the design.
    """
    radix = np.array([t.shape[-1] ** kb for _, t, kb in rep.runs for _ in range(t.shape[1] // kb)])
    budget = CELLS // table.shape[1]
    target = min(budget, math.isqrt(math.prod(int(c) for c in radix if c <= budget)))
    trailing, n_trail = [], 1
    for i in sorted(range(len(radix)), key=lambda i: (-radix[i], -i)):
        if n_trail * radix[i] <= target:
            trailing.append(i)
            n_trail *= int(radix[i])
    leading = [i for i in range(len(radix)) if i not in trailing]
    starts = np.cumsum([0, *radix])
    trail = _table_sums([table[starts[i] : starts[i + 1]] for i in trailing], table.shape[1:])
    n_lead = math.prod(int(radix[i]) for i in leading)
    rows = max(1, min(budget, TILE_CELLS // n_trail))  # leading indices of a tile
    fixed = (rep, table, radix, leading, leading + trailing, trail)
    return [(lo, min(lo + rows, n_lead), fixed) for lo in range(0, n_lead, rows)]


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


def _replay_pieces(reps: int, cells: int, max_draws: int) -> list[tuple[int, int, int, int]]:
    """(first replicate, replicates, first draw, draws) of each piece of replays: runs of
    REPLAY_REPS replicates take their draws in equal ranges of at most about PIECE_CELLS
    cells of (replicates, draws, ``cells``), the largest temporary of one replay."""
    pieces = math.ceil(max_draws * min(reps, REPLAY_REPS) * cells / PIECE_CELLS)
    step = math.ceil(max_draws / pieces)
    runs = [(j, min(REPLAY_REPS, reps - j)) for j in range(0, reps, REPLAY_REPS)]
    return [(j, r, d, min(step, max_draws - d)) for j, r in runs for d in range(0, max_draws, step)]


class _Replays(NamedTuple):
    """The null replays of R replicates, as ``_replays`` lays them out."""

    runs: list  # (first column, (R, S * k, C) option tables, k): S super-blocks of k blocks
    keyed: list  # (first column, kt, (R, G, n) responses) of each untabled group
    w: np.ndarray  # (B,) weights
    q1_rank: int  # leading columns U_q1 of every basis
    bases: list  # each spec's (R, B, L) basis [U_q1 | Q_M]
    joint: np.ndarray  # (R, B, L') columns [U_q1 | Q_M of each spec]
    score: tuple  # (parts, ratio, k, delta, thresh, live), see _replay_piece
    cells: int  # largest of a replay's draws, an untabled group's keys and the L' + 1 sums


def _replays(groups: list, w, q1_rank: int, bases: list, thresh, live) -> _Replays:
    """The replays of R replicates: ``groups`` of ``_option_groups`` on (R, N) responses.

    ``w`` and each spec's (R, B, L) basis [U_q1 | Q_M] have their rows in
    group order; ``thresh`` and ``live`` are (R, specs). A tabled group's
    blocks split, in order, into runs of super-blocks of k blocks, the most
    whose C**k option rows fit in SUPER_ROWS, then one of those left over.
    """
    cols = np.cumsum([0, q1_rank] + [b.shape[-1] - q1_rank for b in bases])  # U_q1, each Q_M, S
    joint = np.concatenate([bases[0], *(b[..., q1_rank:] for b in bases[1:])], axis=-1)
    k = np.diff(cols)[1:]
    parts = np.eye(len(cols))[:-1].repeat(np.append(np.diff(cols), 1), axis=1)  # norms by a GEMM
    delta = np.stack([_exact_error(b) for b in bases], axis=-1)
    score = (parts, ((len(w) - q1_rank - k) / k)[:, None], k, delta, thresh, live)
    runs, keyed, start, cells = [], [], 0, cols[-1] + 1
    for _, kt, a, table in groups:
        g, per = a.shape[-2], 1
        if table is None:
            keyed.append((start, kt, a))
            cells = max(cells, g * a.shape[-1])
        else:
            while per < g and table.shape[-1] ** (per + 1) <= SUPER_ROWS:
                per += 1
            spans = ((0, g - g % per, per), (g - g % per, g, g % per))
            runs += [(start + lo, table[:, lo:hi], kb) for lo, hi, kb in spans if hi > lo]
        start += g
    drawn = sum(t.shape[1] // kb for _, t, kb in runs) + sum(a.shape[-2] for *_, a in keyed)
    return _Replays(runs, keyed, w, q1_rank, bases, joint, score, max(cells, drawn))


def _replay_tables(rep: _Replays, reps: slice) -> tuple[np.ndarray, list]:
    """The flat super-block tables of replicates ``reps``, and each run's (S, r, 1) first rows.

    A super-block's table holds P = v [U_q1 | Q_M of each spec] and S =
    |v|^2 of each of its option rows, its first block the most significant
    digit, built a run at a time by ``_table_sums``.
    """
    joint = rep.joint[reps]
    r, width = joint.shape[0], joint.shape[-1] + 1
    sizes = [(opts.shape[-1] ** kb, opts.shape[1] // kb) for _, opts, kb in rep.runs]  # rows, S
    starts = np.cumsum([0] + [rows * n_sb for rows, n_sb in sizes])
    table = np.empty((r, starts[-1], width))  # replicate by replicate
    for (col, opts, kb), (rows, n_sb), start in zip(rep.runs, sizes, starts):
        n, c = opts.shape[1:]
        v = (opts[reps] * rep.w[col : col + n, None])[..., None]  # (r, S * k, C, 1) entries of v
        term = np.concatenate([v * joint[:, col : col + n, None], v * v], axis=-1)
        terms = term.reshape(r, n_sb, kb, c, width).transpose(2, 3, 1, 0, 4)  # (k, C, S, r, ...)
        sums = _table_sums(list(terms), (n_sb, r, width))  # (C**k, S, r, L' + 1)
        dest = table[:, start : start + rows * n_sb].reshape(r, n_sb, rows, width)
        dest[...] = sums.transpose(2, 1, 0, 3)
    rep_rows = starts[-1] * np.arange(r)[:, None]
    firsts = [start + rows * np.arange(n_sb) for (rows, n_sb), start in zip(sizes, starts)]
    return table.reshape(-1, width), [first[:, None, None] + rep_rows for first in firsts]


def _replay_piece(rep: _Replays, tables: tuple, reps: slice, piece: tuple) -> np.ndarray:
    """(r, specs) hits among the replays of replicates ``reps``: ``piece`` is (rng, m).

    Draws from rng, run by run, an (S, r, m) uniform ``uint16`` index
    (where the rows fit) into each super-block's option rows, then, group
    by group, the (r, m, G, n) keys of each untabled group, whose blocks
    treat their units with the smallest keys. A replay's P and S sum the
    rows it picks from ``tables`` and each untabled group's GEMM term and
    square norms. Pair (j, s) counts the replays with F at or above
    ``thresh[j, s]`` by ``_clear_hits``, or, if it leaves any unclear, by
    ``_f_values`` on the piece's decoded (m, B) effects; pairs not ``live``
    count 0.
    """
    (rng, m), (parts, ratio, k) = piece, rep.score[:3]
    delta, thresh, live = (x[reps] for x in rep.score[3:])
    (table, offsets), r = tables, live.shape[0]
    draws = []
    for _, t, kb in rep.runs:
        rows = t.shape[-1] ** kb
        dtype = np.uint16 if rows <= 1 << 16 else np.int64  # numpy draws 16-bit indices fastest
        draws.append(rng.integers(0, rows, (t.shape[1] // kb, r, m), dtype))
    keys = (rng.random((r, m, *a.shape[1:])) for _, _, a in rep.keyed)
    effects = [_group_effects(a[reps], kt, key) for (_, kt, a), key in zip(rep.keyed, keys)]
    step = max(1, PIECE_CELLS // (r * m * table.shape[1]))  # super-blocks of one gather
    index = [x[i : i + step] for x in map(np.add, draws, offsets) for i in range(0, len(x), step)]
    p = _summed(table, index[0]) if index else np.zeros((r, m, table.shape[1]))
    for rows in index[1:]:
        p += _summed(table, rows)  # each gather's rows are freed before the next
    for (col, *_), eff in zip(rep.keyed, effects):
        v = eff * rep.w[col : col + eff.shape[-1]]
        p[..., :-1] += v @ rep.joint[reps, col : col + v.shape[-1]]
        p[..., -1] += np.einsum("...i,...i->...", v, v)
    s = np.repeat(p[:, None, :, -1], len(k), axis=1)
    norms = parts @ np.square(p, out=p).swapaxes(-1, -2)  # (r, 1 + specs, m)
    num, den = norms[:, 1:], (s - norms[:, :1]) - norms[:, 1:]
    hit, clear = _clear_hits(num, den, s, delta[..., None], ratio, thresh[..., None])
    hits = np.count_nonzero(hit, axis=-1)
    for j, i in np.argwhere(live & ~clear.all(axis=-1)) if not clear.all() else ():
        t_mat = np.empty((m, len(rep.w)))
        for (col, *_), eff in zip(rep.keyed, effects):
            t_mat[:, col : col + eff.shape[-1]] = eff[j]
        hits[j, i] = _formula_hits(rep, reps, j, i, t_mat, [d[:, j] for d in draws])
    return hits * live


def _formula_hits(rep: _Replays, reps: slice, j: int, i: int, t_mat, rows: list) -> int:
    """Replays of replicate j of ``reps`` with F at or above spec i's threshold, by ``_f_values``.

    ``t_mat`` holds the replays' (m, B) effects of the untabled blocks; those
    of the tabled ones are decoded from ``rows``, each run's (S, m) option
    rows, the first block of a super-block its most significant digit.
    """
    for (col, opts, kb), d in zip(rep.runs, rows):
        n, c = opts.shape[1:]
        digits = d[..., None] // c ** np.arange(kb - 1, -1, -1) % c  # (S, m, k)
        t_mat[:, col : col + n] = opts[reps][j][np.arange(n), digits.swapaxes(0, 1).reshape(-1, n)]
    f = _f_values(t_mat, rep.w, rep.bases[i][reps][j], rep.q1_rank)
    return int(np.count_nonzero(f >= rep.score[4][reps][j, i]))


def _summed(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Sum over the first axis of the rows of ``table`` at an (S, ...) ``index``."""
    rows = table.take(index, axis=0)
    return rows[0] if len(rows) == 1 else rows.sum(axis=0)


def _batch_hits(rng, groups: list, w, q1_rank: int, bases: list, thresh, live, max_draws: int):
    """(R, specs) hits among ``max_draws`` replays of each of R replicates, drawn from ``rng``.

    The arguments are as for ``_replays``; a run of REPLAY_REPS replicates
    builds its tables once. Pairs not ``live`` count 0.
    """
    rep = _replays(groups, w, q1_rank, bases, thresh, live)
    hits = np.zeros(live.shape, dtype=np.int64)
    with np.errstate(invalid="ignore", over="ignore"):  # a replicate not live may hold any value
        for j0, r, d0, m in _replay_pieces(live.shape[0], rep.cells, max_draws):
            run = slice(j0, j0 + r)
            if d0 == 0:
                tables = _replay_tables(rep, run)
            hits[run] += _replay_piece(rep, tables, run, (rng, m))
    return hits


def _squares_fit(design: BlockDesign, r: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Mask of the (..., N) responses ``r`` whose replays' sums of squares stay finite: a
    block effect lies within its block's range, so |v|^2 <= sum_i w_i^2 range_i^2, and
    the sums that form the square norms stay within a few times that. The option tables
    sum a block's raw responses, so each block's sum of |r| must stay finite too."""
    starts = design.unit_starts
    with np.errstate(over="ignore", invalid="ignore"):
        spread = np.maximum.reduceat(r, starts, axis=-1) - np.minimum.reduceat(r, starts, axis=-1)
        sums = np.add.reduceat(np.abs(r), starts, axis=-1)
        fit = np.isfinite(4.0 * np.square(w * spread).sum(axis=-1))
        return fit & np.isfinite(sums).all(axis=-1)


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
    InputError when ``max_draws`` is below one or above ``MAX_DRAWS``, or
    when ``seed`` is not a non-negative integer, before any other work, and
    NumericalError before any replay when the responses spread so widely
    that the replays' sums of squares could overflow.
    """
    _check_max_draws(max_draws)
    _check_seed(seed)
    w = block_weights(design)
    effects = block_effects(design, data)
    if not _squares_fit(design, data.r, w):
        raise NumericalError("responses spread too widely: the replays' squares would overflow")
    _check_covariate_block(q2)

    notes: list[str] = []
    t = _f_values(effects.tau_hat[None, :], w, q2.basis, q2.q1_rank)[0]
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
    order = design._group_order
    groups = _option_groups(design, data.r[None], EXACT_OPTION_CELLS if exact else OPTION_CELLS)
    thresh, live = np.full((1, 1), thresh), np.ones((1, 1), dtype=bool)
    rep = _replays(groups, w[order], q2.q1_rank, [q2.basis[order][None]], thresh, live)
    tables = _replay_tables(rep, slice(None))
    if exact:
        args = _exact_tiles(rep, tables[0])
        hits, draws = (sum(col) for col in zip(*map_chunks(_exact_tile, args, threads)))
    else:
        pieces = enumerate(_replay_pieces(1, rep.cells, max_draws))
        pieces = [(chunk_rng(seed, c), m) for c, (*_, m) in pieces]  # piece c draws from (seed, c)
        score = functools.partial(_replay_piece, rep, tables, slice(None))
        hits, draws = int(np.sum(map_chunks(score, pieces, threads))), max_draws
    return HetTestResult(
        f_observed=float(t),
        p_value=hits / draws if exact else (1 + hits) / (1 + draws),
        draws=draws,
        exact=exact,
        numerator_df=q2.added_covariate_rank,
        denominator_df=design.n_blocks - q2.rank,
        seed=None if exact else int(seed),
        notes=tuple(notes),
    )
