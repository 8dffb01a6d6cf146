"""Differential test of the basis factor against scipy's column-pivoted QR.

``orthonormal_basis`` factors its columns, largest norm first, with numpy's
unpivoted QR. For one or two columns that order is the whole pivot order of
``scipy.linalg.qr(..., pivoting=True)``, so the factor and the leverages
must match it bit for bit: this covers every q1 basis. A basis near the
rank tolerance goes to that pivoted QR itself, which then decides
RankDeficient as before.
"""
from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from stratavar import BlockDesign, block_weights, build_q1
from stratavar.errors import RankDeficient, StratavarError
from stratavar.projection import RANK_TOL, _checked_leverages, orthonormal_basis

BLOCK_COUNTS = (3, 4, 7, 50, 301, 3000)


def _reference(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pivoted-QR factor, its rank decision and its leverages."""
    q, r, _ = scipy.linalg.qr(values, mode="economic", pivoting=True)
    tol = RANK_TOL * float(np.linalg.norm(values, axis=0).max())
    rank = int(np.sum(np.abs(np.diag(r)) > tol))
    if rank < values.shape[1]:
        raise RankDeficient(f"basis has numerical rank {rank} < {values.shape[1]} columns")
    return q, _checked_leverages(np.einsum("ij,ij->i", q, q))


def _outcome(build, *args):
    """The returned arrays' shapes, layouts and bytes, or the exception class
    and message. Products with the factor round according to its layout."""
    try:
        return [(a.shape, a.flags.f_contiguous, a.tobytes()) for a in build(*args)]
    except StratavarError as exc:
        return type(exc), str(exc)


def _q1_values(design: BlockDesign) -> np.ndarray:
    """[1, w - 1], without the weights column when the sizes are equal."""
    ones = np.ones(design.n_blocks)
    w = block_weights(design)
    return ones[:, None] if np.all(w == 1.0) else np.column_stack([ones, w - 1.0])


def _q1_factor(design: BlockDesign) -> tuple[np.ndarray, np.ndarray]:
    q1 = build_q1(design)
    return q1.basis, q1.leverages


def _q1_designs(b: int, rng: np.random.Generator):
    """Equal sizes; mild size spread (weights column shorter than the
    intercept); and a few large blocks among pairs (weights column longer,
    so the pivot swaps the two columns)."""
    yield [3] * b
    yield [int(n) for n in rng.integers(2, 5, size=b)]
    sizes = [2] * b
    for i in rng.choice(b, size=max(1, b // 10), replace=False):
        sizes[i] = 80
    yield sizes


@pytest.mark.parametrize("b", BLOCK_COUNTS)
def test_q1_factor_matches_the_pivoted_qr_bit_for_bit(b):
    rng = np.random.default_rng(b)
    swapped = 0
    for sizes in _q1_designs(b, rng):
        design = BlockDesign.from_sizes(sizes, [1] * b)
        values = _q1_values(design)
        assert _outcome(_q1_factor, design) == _outcome(_reference, values)
        norms = np.linalg.norm(values, axis=0)
        swapped += int(norms.size == 2 and norms[1] > norms[0])
    assert swapped == 1


@pytest.mark.parametrize("b", BLOCK_COUNTS)
def test_two_column_factor_matches_the_pivoted_qr_bit_for_bit(b):
    rng = np.random.default_rng(1000 + b)
    alternating = np.where(np.arange(b) % 2 == 0, 1.0, -1.0)
    ones = np.ones(b)
    cases = [
        ones[:, None],
        rng.normal(size=(b, 1)) * 1e-3,
        np.column_stack([ones, 0.5 * alternating]),
        np.column_stack([ones, 4.0 * alternating]),  # swapped norms
        np.column_stack([4.0 * alternating, ones]),
    ]
    if b % 2 == 0:  # the two norms tie exactly; the first column leads
        cases += [np.column_stack([ones, alternating]), np.column_stack([alternating, ones])]
    for _ in range(20):
        scales = 10.0 ** rng.uniform(-4, 4, size=2)
        cases.append(rng.normal(size=(b, 2)) * scales)
    for values in cases:
        assert _outcome(orthonormal_basis, values) == _outcome(_reference, values)


def _near_tolerance_bases(count: int):
    """3-5 column bases whose last column is a combination of the others,
    perturbed by 1e-11 to 1e-9 of its norm: the band around RANK_TOL."""
    rng = np.random.default_rng(77)
    for _ in range(count):
        b = int(rng.integers(8, 40))
        k = int(rng.integers(3, 6))
        cols = rng.normal(size=(b, k - 1)) * 10.0 ** rng.uniform(-2, 2, size=k - 1)
        new = cols @ rng.normal(size=k - 1)
        noise = rng.normal(size=b)
        relative = 10.0 ** rng.uniform(-11, -9)
        new = new + relative * np.linalg.norm(new) * noise / np.linalg.norm(noise)
        values = np.column_stack([cols, new])
        yield values[:, rng.permutation(k)]


def test_near_tolerance_bases_take_the_pivoted_qr_decision(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return qr(*args, **kwargs)

    qr = scipy.linalg.qr
    decisions = set()
    for values in _near_tolerance_bases(200):
        expected = _outcome(_reference, values)
        monkeypatch.setattr(scipy.linalg, "qr", counted)
        calls.clear()
        got = _outcome(orthonormal_basis, values)
        monkeypatch.setattr(scipy.linalg, "qr", qr)
        assert calls, "a basis near the rank tolerance must reach the pivoted QR"
        assert got == expected
        decisions.add(expected[0] is RankDeficient)
    assert decisions == {True, False}
