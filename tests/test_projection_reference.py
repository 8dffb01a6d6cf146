"""Differential test of ``build_q2`` against the three-factorization reference.

``reference_build_q2`` is the plain reading of the basis build: a
Gram-Schmidt pass (``reference_independent_columns``) picks the earliest
maximal independent subset of the q1-orthogonalized covariate block, and a
column-pivoted QR of the whole basis ``[q1 | M]`` decides its rank and gives
its orthonormal factor. The library factors M once instead, and reads the
whole basis off that factor. On every generated covariate block both builds
must report the same dropped columns, notes, warnings, ranks and ``values``,
or raise the same exception class with the same message; when the basis is
well conditioned their projections must agree to 1e-12.
"""
from __future__ import annotations

import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from stratavar import BlockDesign, block_weights, build_q1, build_q2  # noqa: E402
from stratavar.errors import (  # noqa: E402
    DegenerateCovariate,
    DegenerateCovariateWarning,
    StratavarError,
    TooManyColumns,
)
from stratavar.projection import (  # noqa: E402
    RANK_TOL,
    QMatrix,
    _expanded_block_means,
    orthonormal_basis,
)

PERTURBATIONS = (0.0, 1e-14, 1e-12, 1e-8, 1e-6)  # clear of the 1e-11..1e-9 band around RANK_TOL


def reference_independent_columns(values: np.ndarray) -> list[int]:
    """Indices of the earliest maximal independent column subset, by Gram-Schmidt."""
    v = np.asarray(values, dtype=float)
    if v.shape[1] == 0:
        return []
    norms = np.linalg.norm(v, axis=0)
    if norms.max() == 0.0:
        return []
    tol = RANK_TOL * float(norms.max())
    kept: list[int] = []
    basis = np.zeros((v.shape[0], 0))
    for j in range(v.shape[1]):
        col = v[:, j]
        if basis.shape[1]:
            col = col - basis @ (basis.T @ col)
            col = col - basis @ (basis.T @ col)
        norm = float(np.linalg.norm(col))
        if norm > tol:
            kept.append(j)
            basis = np.column_stack([basis, col / norm])
    return kept


def reference_build_q2(design: BlockDesign, xbar) -> QMatrix:
    """q2 by Gram-Schmidt column selection and a pivoted QR of the whole basis."""
    q1 = build_q1(design)
    b = design.n_blocks
    w = block_weights(design)
    raw = w[:, None] * _expanded_block_means(design, xbar, 1)
    m = q1.residual(raw)

    raw_norms = np.linalg.norm(raw, axis=0)
    m_norms = np.linalg.norm(m, axis=0)
    scale = max(float(raw_norms.max()), 1e-300)
    degenerate = m_norms <= RANK_TOL * scale
    dropped: list[int] = []
    notes: list[str] = []
    if np.any(degenerate):
        idx = [int(j) for j in np.flatnonzero(degenerate)]
        dropped.extend(idx)
        notes.append(
            f"covariate columns {idx} vanished after weighting and centering; dropped"
        )
        warnings.warn(notes[-1], DegenerateCovariateWarning, stacklevel=2)
    kept_idx = [int(j) for j in np.flatnonzero(~degenerate)]
    if not kept_idx:
        raise DegenerateCovariate(
            "all covariate columns vanished after weighting and centering"
        )
    m_kept = m[:, kept_idx]

    indep_local = reference_independent_columns(m_kept)
    if len(indep_local) < len(kept_idx):
        collinear = sorted(set(range(len(kept_idx))) - set(indep_local))
        collinear_orig = [kept_idx[j] for j in collinear]
        dropped.extend(collinear_orig)
        notes.append(f"covariate columns {collinear_orig} collinear with earlier ones; dropped")
    m_final = m_kept[:, indep_local]
    added_rank = m_final.shape[1]

    ncol = q1.rank + added_rank
    if ncol >= b:
        raise TooManyColumns(
            f"basis would have {ncol} columns for {b} blocks; at least one residual "
            "degree of freedom is required"
        )
    values = np.column_stack([q1.values, m_final])
    u, lev = orthonormal_basis(values)
    return QMatrix(
        values=values,
        basis=u,
        leverages=lev,
        rank=ncol,
        kind="q2",
        q1_rank=q1.rank,
        added_covariate_rank=added_rank,
        dropped_columns=tuple(sorted(dropped)),
        notes=tuple(notes),
    )


@st.composite
def covariate_blocks(draw) -> tuple[BlockDesign, np.ndarray]:
    """A design of 4-40 blocks and a block-level covariate matrix.

    Independent normal columns are followed by columns derived from them:
    exact and scaled duplicates, linear combinations perturbed at a relative
    size from ``PERTURBATIONS``, constants (which vanish after weighting and
    centering) and fresh columns, in random positions; a block without
    independent columns starts from a constant. Some equal-size designs get
    a spike on one block, whose leverage is one. (The LeverageOne message
    names the block, which is arbitrary between two exact leverage ones, so
    the spike is single, and kept out of unequal-size designs, where q1 and
    a spike can make a second block's leverage one.) Some matrices are
    widened to K >= B - 1 columns. The whole matrix is scaled, so that
    small covariates meet the rank tolerance of the intercept column, and
    sometimes offset, so that rounding along q1 shows in the covariate block.
    """
    b = draw(st.integers(4, 40))
    equal = draw(st.integers(0, 3)) == 0
    if equal:
        sizes = [draw(st.integers(2, 4))] * b
    else:
        sizes = [draw(st.integers(2, 5)) for _ in range(b)]
    design = BlockDesign.from_sizes(sizes, [1] * b)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = [rng.normal(size=b) for _ in range(draw(st.integers(0, min(4, b))))] or [np.full(b, 2.0)]
    for kind in draw(st.lists(st.sampled_from(
        ("duplicate", "scaled", "combination", "combination", "constant", "fresh")
    ), max_size=6)):
        pick = cols[draw(st.integers(0, len(cols) - 1))]
        if kind == "duplicate":
            new = pick.copy()
        elif kind == "scaled":
            new = draw(st.sampled_from((-2.0, 0.5, 3.0))) * pick
        elif kind == "combination":
            new = np.column_stack(cols) @ rng.normal(size=len(cols))
            noise = rng.normal(size=b)
            relative = draw(st.sampled_from(PERTURBATIONS))
            new = new + relative * np.linalg.norm(new) * noise / np.linalg.norm(noise)
        elif kind == "constant":
            new = np.full(b, draw(st.sampled_from((1.0, -3.5))))
            if draw(st.booleans()):
                new = new / block_weights(design)
        else:
            new = rng.normal(size=b)
        cols.insert(draw(st.integers(0, len(cols))), new)
    if equal and draw(st.integers(0, 2)) == 0:
        spike = np.zeros(b)
        spike[draw(st.integers(0, b - 1))] = 1.0
        cols.insert(draw(st.integers(0, len(cols))), spike)
    if draw(st.integers(0, 4)) == 0:
        cols += [rng.normal(size=b) for _ in range(b - 1 - len(cols) + draw(st.integers(0, 2)))]
    scale = draw(st.sampled_from((1.0, 1.0, 1e-4, 1e-5, 1e3)))
    offset = draw(st.sampled_from((0.0, 0.0, 1e4)))
    return design, scale * (np.column_stack(cols) + offset)


def _outcome(build, design, xbar):
    """(basis or None, exception class and message or None, warnings raised)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            q = build(design, xbar)
        except StratavarError as exc:
            return None, (type(exc), str(exc)), len(caught)
    return q, None, len(caught)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=covariate_blocks())
def test_build_q2_matches_the_three_factorization_reference(case):
    design, xbar = case
    ref, ref_error, ref_warnings = _outcome(reference_build_q2, design, xbar)
    new, new_error, new_warnings = _outcome(
        lambda d, x: build_q2(d, xbar=x, poly_degree=1), design, xbar
    )
    assert new_error == ref_error
    assert new_warnings == ref_warnings
    if ref is None:
        return
    for field in ("dropped_columns", "notes", "rank", "q1_rank", "added_covariate_rank"):
        assert getattr(new, field) == getattr(ref, field), field
    np.testing.assert_array_equal(new.values, ref.values)
    if np.linalg.cond(ref.values) < 1e4:
        np.testing.assert_allclose(new.leverages, ref.leverages, rtol=0.0, atol=1e-12)
        v = np.random.default_rng(design.n_blocks).normal(size=(design.n_blocks, 2))
        np.testing.assert_allclose(new.residual(v), ref.residual(v), rtol=0.0, atol=1e-12)
