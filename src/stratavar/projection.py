"""Covariate bases, their orthonormal factors, and leverages at the block level.

The variance estimators project the vector of weighted block effects onto
the column space of a B x L basis Q. Two standard bases are provided:

* ``build_q1``: intercept plus centered block weights (the weights column is
  dropped when all blocks have equal size, where it is identically zero).
* ``build_q2``: the q1 columns plus weighted, q1-orthogonalized block means
  of covariates, optionally expanded in polynomials of the unit values.

Rank decisions use the tolerance ``1e-10 * (largest column norm)``.
``build_q1`` factors its columns, largest norm first, with an unpivoted
QR; for its one or two columns that is the column-pivoted QR's own order
and factor. ``build_q2`` factors M, the q1-orthogonalized covariate block,
with one unpivoted QR; column j is collinear when its |R_jj| is at most the
tolerance for M's columns. In both, a column-pivoted QR (``scipy.linalg``,
imported only then) decides RankDeficient, and runs only when the basis's
smallest singular value nears the tolerance: no pivoted |R_jj| falls below
it, so a basis clear of the tolerance is of full rank.
``q2_stack`` runs that factorization, and every check, on a stack of
covariate blocks at once, and lays out each row's basis ``[U_q1 | Q_M]``
(``Q2Stack.basis``); ``build_q2`` is its one-row case, and repairs (drops,
refactors or raises) only a row that some check flags.

Every consumer needs only the residual ``v - H v`` and the leverages
``diag(H)`` of the projector H onto col(Q), never H itself. Both come from
U, the B x L orthonormal factor of Q: ``H v = U (U' v)``, whose residual
the estimators and the F statistic form by ``_residual``, and
``h_ii = |u_i|^2``. A ``QMatrix`` therefore stores U and costs O(B L)
memory and O(B L) time per projection; the dense B x B ``hat`` exists only
as a lazily built property for callers that ask for it explicitly.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .design import BlockDesign, block_weights
from .errors import (
    DegenerateCovariate,
    DegenerateCovariateWarning,
    DimensionMismatch,
    InsufficientBlocks,
    LeverageOne,
    RankDeficient,
    TooManyColumns,
)

RANK_TOL = 1e-10
LEVERAGE_TOL = 1e-10
Q1_LEAK_TOL = 1e-13  # largest |U_q1' Q_M| entry kept without refactoring


@dataclass(frozen=True)
class QMatrix:
    """A full-column-rank block-level basis with its projection geometry.

    ``values`` is B x L; ``basis`` is a B x L matrix U with orthonormal
    columns spanning col(values); ``leverages`` are the squared row norms of
    U, the diagonal of the projector. ``q1_rank`` counts the leading base
    columns (intercept and, if present, centered weights);
    ``added_covariate_rank`` counts the covariate columns that survived
    degeneracy and collinearity reduction. ``dropped_columns`` records
    0-based indices of the supplied covariate columns that were removed,
    with human-readable ``notes``.

    A q2 ``basis`` is ``[U_q1 | Q_M]``: the q1 factor, then an orthonormal
    basis of the covariate block ``values[:, q1_rank:]`` orthogonal to it,
    which the heterogeneity test projects onto.

    Projections go through U in O(B L). ``hat`` builds the dense B x B
    projector U U' on first access and caches it on the instance; no library
    path asks for it.
    """

    values: np.ndarray
    basis: np.ndarray
    leverages: np.ndarray
    rank: int
    kind: str
    q1_rank: int
    added_covariate_rank: int
    dropped_columns: tuple[int, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def n_blocks(self) -> int:
        return self.values.shape[0]

    def residual(self, v: np.ndarray) -> np.ndarray:
        """(I - H) v = v - U (U' v) for a length-B vector or a B x K array."""
        return v - self.basis @ (self.basis.T @ v)

    @cached_property
    def _one_minus_leverage(self) -> np.ndarray:
        one_minus = 1.0 - self.leverages
        if np.any(one_minus <= LEVERAGE_TOL):
            raise LeverageOne("a leverage is numerically one; reweighting undefined")
        return one_minus

    @cached_property
    def psi(self) -> np.ndarray:
        """1/(1-h_ii)^2; raises LeverageOne when a leverage is numerically one."""
        return _psi_weights(self._one_minus_leverage)[0]

    @cached_property
    def psi_tilde(self) -> np.ndarray:
        """1/(1-h_ii); raises LeverageOne when a leverage is numerically one."""
        return _psi_weights(self._one_minus_leverage)[1]

    @cached_property
    def hat(self) -> np.ndarray:
        """The dense B x B projector U U' (O(B^2) memory)."""
        return _symmetric_outer(self.basis)


def _residual(rows: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """rows - (rows U) U': each (..., m, B) row's residual off col(U), U the (..., B, L) basis."""
    return rows - (rows @ basis) @ basis.swapaxes(-1, -2)


def _psi_weights(one_minus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The leverage reweightings (1/(1-h)^2, 1/(1-h)) of (..., B) values 1 - h_ii."""
    return 1.0 / one_minus**2, 1.0 / one_minus


def _symmetric_outer(u: np.ndarray) -> np.ndarray:
    hat = u @ u.T
    return (hat + hat.T) / 2.0


def orthonormal_basis(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal factor and leverages for a full-column-rank basis.

    The columns are factored largest norm first (ties in column order), the
    first pivot of a column-pivoted QR, so for one or two columns the factor
    is the pivoted QR's. A basis whose smallest singular value is within 10x
    of the rank tolerance is factored by that pivoted QR instead.

    Args:
        values: (B, L) array, L >= 1.

    Returns:
        (basis, leverages) where basis is (B, L) with orthonormal columns
        spanning col(values) and leverages are its squared row norms, the
        diagonal of the projector onto that span.

    Raises:
        RankDeficient: numerical rank below L.
        LeverageOne: some leverage reaches 1 - 1e-10.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 2 or v.shape[1] < 1:
        raise DimensionMismatch(f"basis must be a 2-d array with columns, got shape {v.shape}")
    b, ncol = v.shape
    if ncol > b:
        raise RankDeficient(f"basis has {ncol} columns but only {b} rows")
    norms = np.linalg.norm(v, axis=0)
    tol = RANK_TOL * float(norms.max())
    q, r = np.linalg.qr(v[:, np.argsort(-norms, kind="stable")])
    if np.linalg.svd(r, compute_uv=False).min() <= 10.0 * tol:
        q = _pivoted_factor(v, tol)
    else:  # column-major, as the pivoted QR returns it: products with q round by layout
        q = np.asfortranarray(q)
    return q, _checked_leverages(np.einsum("ij,ij->i", q, q))


def _pivoted_factor(values: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal factor of a column-pivoted QR of ``values``.

    Raises RankDeficient when some |R_jj| is at or below ``tol``. Only bases
    near the rank tolerance get here, so scipy is imported here alone.
    """
    import scipy.linalg

    q, r, _ = scipy.linalg.qr(values, mode="economic", pivoting=True)
    rank = int(np.sum(np.abs(np.diag(r)) > tol))
    if rank < values.shape[1]:
        raise RankDeficient(f"basis has numerical rank {rank} < {values.shape[1]} columns")
    return q


def _leverages(squared_row_norms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Leverages clipped to [0, 1], and the mask of those at or above 1 - 1e-10."""
    lev = np.clip(squared_row_norms, 0.0, 1.0)
    return lev, lev >= 1.0 - LEVERAGE_TOL


def _checked_leverages(squared_row_norms: np.ndarray) -> np.ndarray:
    """Leverages clipped to [0, 1]; LeverageOne names the first block at 1 - 1e-10 or above."""
    lev, one = _leverages(squared_row_norms)
    if one.any():
        first = int(np.argmax(one))
        raise LeverageOne(f"leverage {lev[first]:.12f} at block index {first} is numerically one")
    return lev


def hat_and_leverage(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense projection matrix and leverages for a full-column-rank basis.

    Same checks as :func:`orthonormal_basis`; the (B, B) projector costs
    O(B^2) memory, so the library itself never calls this.
    """
    u, lev = orthonormal_basis(values)
    return _symmetric_outer(u), lev


def build_q1(design: BlockDesign) -> QMatrix:
    """Intercept-and-weights basis [e, w - e] (weights column only when unequal).

    Cached on the design, as it depends only on the block sizes. Raises
    InsufficientBlocks when the basis would use every degree of freedom.
    """
    cached = design.__dict__.get("_q1")
    if cached is not None:
        return cached
    b, sizes = design.n_blocks, design.sizes
    cols = [np.ones(b)]
    if (sizes != sizes[:1]).any():  # the weights column w - 1 is zero for equal sizes
        cols.append(block_weights(design) - 1.0)
    values = np.column_stack(cols)
    ncol = values.shape[1]
    if ncol >= b:
        raise InsufficientBlocks(
            f"intercept-and-weights basis has {ncol} columns; needs more than {b} blocks"
        )
    u, lev = orthonormal_basis(values)
    q1 = QMatrix(
        values=values,
        basis=u,
        leverages=lev,
        rank=ncol,
        kind="q1",
        q1_rank=ncol,
        added_covariate_rank=0,
    )
    for shared in (values, u, lev):  # every caller on this design gets these arrays
        shared.flags.writeable = False
    design.__dict__["_q1"] = q1  # the design is frozen; cached_property stores here too
    return q1


def _expanded_block_means(
    design: BlockDesign, xbar, poly_degree: int, columns=None
) -> np.ndarray:
    """Block means of unit-level covariate powers 1..poly_degree, as a B x (K*p) array.

    When ``xbar`` is given it is taken as block-constant covariate values and
    powered directly; otherwise unit-level covariates come from the design,
    optionally restricted to the ``columns`` indices.
    """
    if poly_degree < 1:
        raise DimensionMismatch(f"poly_degree must be >= 1, got {poly_degree}")
    if xbar is not None:
        x = np.asarray(xbar, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if x.shape[0] != design.n_blocks:
            raise DimensionMismatch(
                f"xbar has {x.shape[0]} rows for {design.n_blocks} blocks"
            )
        return np.column_stack([x**p for p in range(1, poly_degree + 1)])
    units = design.covariates
    if units is None:
        raise DimensionMismatch("design carries no unit-level covariates")
    if columns is not None:
        bad = [j for j in columns if not 0 <= j < design.covariate_dim]
        if bad:
            raise DimensionMismatch(
                f"covariate column indices {bad} out of range for {design.covariate_dim} columns"
            )
        units = units[:, list(columns)]
    powers = np.hstack([units**p for p in range(1, poly_degree + 1)])
    return np.add.reduceat(powers, design.unit_starts, axis=0) / design.sizes[:, None]


class Q2Stack(NamedTuple):
    """``build_q2``'s one-factorization path over a stack of covariate blocks.

    Row r is ``ok`` when its basis needs no column drop, note, refactor or
    rank fallback and raises nothing; ``build_q2`` then returns ``basis[r]``
    with ``leverages[r]`` for it. ``basis`` and ``leverages`` are None when
    the basis has too many columns or every row has a degenerate column.
    """

    m: np.ndarray  # (R, B, K) weighted covariate blocks orthogonalized against q1
    m_norms: np.ndarray  # (R, K) their column norms
    degenerate: np.ndarray  # (R, K) columns that vanished after weighting and centering
    basis: np.ndarray | None  # (R, B, L) orthonormal factors [U_q1 | Q_M], Q_M that of m
    leverages: np.ndarray | None  # (R, B) leverages of [q1 | m]
    ok: np.ndarray  # (R,) bool


def _collinear(r: np.ndarray, col_max) -> np.ndarray:
    """Mask of R's |R_jj| at or below the rank tolerance for columns of largest norm ``col_max``."""
    diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    return diag <= RANK_TOL * np.expand_dims(col_max, -1)


def _q1_leak(q1: QMatrix, qm: np.ndarray):
    """Whether rounding of M along q1 shows in Q_M (large covariate offsets)."""
    return np.abs(q1.basis.T @ qm).max(axis=(-2, -1)) > Q1_LEAK_TOL


def _near_rank_tol(q1: QMatrix, r: np.ndarray, m_max):
    """Whether ``[q1 | M]``'s smallest singular value is within 10x of the rank
    tolerance, and that tolerance.

    No pivoted |R_jj| falls below the smallest singular value, which for M
    orthogonal to q1 is the least of the q1 column norms and R's.
    """
    q1_norms = np.linalg.norm(q1.values, axis=0)
    rank_tol = RANK_TOL * np.maximum(q1_norms.max(), m_max)
    sigma_min = np.minimum(q1_norms.min(), np.linalg.svd(r, compute_uv=False).min(axis=-1))
    return sigma_min <= 10.0 * rank_tol, rank_tol


def q2_stack(q1: QMatrix, raw: np.ndarray) -> Q2Stack:
    """Factor an (R, B, K) stack of weighted covariate blocks W Xbar with one stacked QR.

    Every check of ``build_q2`` is applied to each row; a row that any check
    flags is not ``ok``, and ``build_q2`` on it takes the path that drops,
    refactors or raises.
    """
    b, k = raw.shape[-2:]
    m = raw - q1.basis @ (q1.basis.T @ raw)
    raw_norms = np.linalg.norm(raw, axis=-2)
    m_norms = np.linalg.norm(m, axis=-2)
    scale = np.maximum(raw_norms.max(axis=-1, keepdims=True), 1e-300)
    degenerate = m_norms <= RANK_TOL * scale
    ok = ~degenerate.any(axis=-1)
    if q1.rank + k >= b or not ok.any():  # TooManyColumns, or nothing left to factor
        return Q2Stack(m, m_norms, degenerate, None, None, np.zeros_like(ok))
    qm, r = np.linalg.qr(m)
    m_max = m_norms.max(axis=-1)
    lev, one = _leverages(q1.leverages + np.einsum("...ij,...ij->...i", qm, qm))
    ok &= ~_collinear(r, m_max).any(axis=-1) & ~_q1_leak(q1, qm) & ~one.any(axis=-1)
    ok &= ~_near_rank_tol(q1, r, m_max)[0]
    u1 = np.broadcast_to(q1.basis, qm.shape[:-1] + (q1.rank,))
    return Q2Stack(m, m_norms, degenerate, np.concatenate([u1, qm], axis=-1), lev, ok)


def build_q2(design: BlockDesign, xbar=None, poly_degree: int = 1, columns=None) -> QMatrix:
    """q1 columns plus weighted covariate block means, orthogonalized against q1.

    The added block M = (I - H_q1) W Xbar keeps the projector identical to the
    one for [q1, W Xbar] while making the two column groups exactly orthogonal.
    Covariate columns that vanish after weighting and centering are dropped with
    a DegenerateCovariateWarning; collinear survivors are dropped silently into
    the metadata. Dropping everything raises DegenerateCovariate.

    Args:
        design: validated block design.
        xbar: optional (B, K) block-level covariate values. Default: block means
            of unit powers computed from the design's own covariates.
        poly_degree: expand each covariate in powers 1..poly_degree.
        columns: optional indices restricting which design covariates enter;
            only meaningful when ``xbar`` is None.
    """
    q1 = build_q1(design)
    x = _expanded_block_means(design, xbar, poly_degree, columns)
    stack = q2_stack(q1, (block_weights(design)[:, None] * x)[None])
    if stack.ok[0]:
        m, basis, lev, dropped, notes = stack.m[0], stack.basis[0], stack.leverages[0], [], []
    else:
        m, basis, lev, dropped, notes = _repaired_q2(q1, stack)
    return QMatrix(
        values=np.column_stack([q1.values, m]),
        basis=basis,
        leverages=lev,
        rank=q1.rank + m.shape[1],
        kind="q2",
        q1_rank=q1.rank,
        added_covariate_rank=m.shape[1],
        dropped_columns=tuple(sorted(dropped)),
        notes=tuple(notes),
    )


def _repaired_q2(q1: QMatrix, stack: Q2Stack) -> tuple:
    """``build_q2`` for a one-row stack that is not ok: drop, refactor or raise.

    Returns the kept columns of M, the basis [U_q1 | Q_M], the leverages,
    and the dropped column indices with their notes.
    """
    m, m_norms, degenerate = stack.m[0], stack.m_norms[0], stack.degenerate[0]
    b = m.shape[0]
    dropped: list[int] = []
    notes: list[str] = []
    if np.any(degenerate):
        idx = [int(j) for j in np.flatnonzero(degenerate)]
        dropped.extend(idx)
        notes.append(
            f"covariate columns {idx} vanished after weighting and centering; dropped"
        )
        warnings.warn(notes[-1], DegenerateCovariateWarning, stacklevel=3)
    kept_idx = np.flatnonzero(~degenerate).tolist()
    if not kept_idx:
        raise DegenerateCovariate(
            "all covariate columns vanished after weighting and centering"
        )
    m_kept = m[:, kept_idx] if dropped else m

    # Greedy in column order, so a later duplicate is dropped. After a drop the
    # survivors are factored again: the dropped column's reflector leaves noise
    # in later R_jj. M is orthogonal to q1, so columns past the (B - q1 rank)-th
    # count as collinear, whatever their R_jj.
    m_max = float(m_norms[kept_idx].max())
    local = list(range(len(kept_idx)))
    m_final = m_kept
    while True:
        qm, r = np.linalg.qr(m_final)
        small = np.flatnonzero(_collinear(r, m_max))
        first = int(small[0]) if small.size else min(r.shape[1], b - q1.rank)
        if first == len(local):
            break
        del local[first]
        m_final = m_kept[:, local]
    if len(local) < len(kept_idx):
        collinear_orig = [kept_idx[j] for j in sorted(set(range(len(kept_idx))) - set(local))]
        dropped.extend(collinear_orig)
        notes.append(f"covariate columns {collinear_orig} collinear with earlier ones; dropped")

    ncol = q1.rank + m_final.shape[1]
    if ncol >= b:
        raise TooManyColumns(
            f"basis would have {ncol} columns for {b} blocks; at least one residual "
            "degree of freedom is required"
        )
    if _q1_leak(q1, qm):
        qm, r = np.linalg.qr(np.column_stack([q1.basis, m_final]))
        qm, r = qm[:, q1.rank :], r[q1.rank :, q1.rank :]
    near, rank_tol = _near_rank_tol(q1, r, float(m_norms[kept_idx][local].max()))
    if near:
        _pivoted_factor(np.column_stack([q1.values, m_final]), rank_tol)  # raises RankDeficient
    lev = _checked_leverages(q1.leverages + np.einsum("ij,ij->i", qm, qm))
    return m_final, np.column_stack([q1.basis, qm]), lev, dropped, notes
