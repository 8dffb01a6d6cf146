"""Projections through the thin orthonormal basis instead of a B x B hat matrix."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import stratavar.simulate as simulate_module
from stratavar import (
    AssignmentAndOutcomes,
    BlockDesign,
    PotentialWorld,
    QMatrix,
    analyze_experiment,
    block_weights,
    build_q1,
    build_q2,
    expected_bias_s2,
    permutation_test,
    run_table1,
    sample_assignment,
    true_block_variance,
)
from stratavar.errors import LeverageOne, TooManyColumns
from stratavar.projection import q2_stack


def _mixed_design(rng: np.random.Generator, n_blocks: int) -> BlockDesign:
    sizes = [int(s) for s in rng.integers(2, 6, size=n_blocks)]
    treated = [int(rng.integers(1, s)) for s in sizes]
    covariates = [rng.normal(size=(n, 2)) for n in sizes]
    return BlockDesign.from_sizes(sizes, treated, covariates=covariates)


def _random_bases(seed: int, count: int):
    """(design, q) pairs over q1 and q2 bases of polynomial degree 1 to 3."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        design = _mixed_design(rng, int(rng.integers(12, 30)))
        degree = int(rng.integers(1, 4))
        try:
            q = build_q1(design) if len(out) % 4 == 0 else build_q2(design, poly_degree=degree)
        except (LeverageOne, TooManyColumns):
            continue
        out.append((design, q))
    return out


def test_residual_and_leverages_match_the_dense_projector():
    for design, q in _random_bases(2024, 16):
        rng = np.random.default_rng(design.n_blocks)
        hat = q.hat
        for v in (rng.normal(size=design.n_blocks), rng.normal(size=(design.n_blocks, 3))):
            dense = v - hat @ v
            np.testing.assert_allclose(q.residual(v), dense, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(q.leverages, np.diag(hat), rtol=0.0, atol=1e-12)
        assert q.basis.shape == (design.n_blocks, q.rank)
        np.testing.assert_allclose(q.basis.T @ q.basis, np.eye(q.rank), atol=1e-12)


def test_expected_bias_s2_matches_the_dense_formula():
    for design, q in _random_bases(2025, 16):
        rng = np.random.default_rng(design.n_blocks + 1)
        r0 = tuple(rng.normal(size=n) for n in design.sizes)
        r1 = tuple(r + rng.normal(1.0, 2.0) + rng.normal(size=r.shape[0]) for r in r0)
        world = PotentialWorld(design=design, r1=r1, r0=r0)
        w = block_weights(design)

        hat = q.hat
        h2 = hat**2
        inv2 = 1.0 / (1.0 - np.diag(hat)) ** 2
        cross = h2 @ inv2 - np.diag(h2) * inv2
        v = w * world.tau_bar
        resid = v - hat @ v
        dense = (
            float(np.sum(w**2 * true_block_variance(world) * cross))
            + float(np.sum(resid**2 * inv2))
        ) / design.n_blocks**2

        assert expected_bias_s2(world, w, q) == pytest.approx(dense, rel=1e-12, abs=1e-15)


def _pairs_with_covariate(n_blocks: int, seed: int):
    rng = np.random.default_rng(seed)
    x = rng.random(n_blocks)
    design = BlockDesign.from_sizes(
        [2] * n_blocks, [1] * n_blocks, covariates=[np.full((2, 1), xi) for xi in x]
    )
    assignment = sample_assignment(design, rng)
    responses = tuple(
        rng.normal(size=2) + np.array(z) * (1.0 + xi) for z, xi in zip(assignment.z, x)
    )
    return design, AssignmentAndOutcomes(assignment=assignment, responses=responses)


def test_library_paths_never_build_the_dense_projector(monkeypatch):
    design, data = _pairs_with_covariate(40, 7)
    q1 = build_q1(design)
    q2 = build_q2(design, poly_degree=2)
    analyze_experiment(design, data, q=q1)
    analyze_experiment(design, data, q=q2)
    permutation_test(design, data, q2, max_draws=50, seed=1)
    small, small_data = _pairs_with_covariate(8, 8)
    small_q2 = build_q2(small, poly_degree=1)
    assert permutation_test(small, small_data, small_q2, max_draws=1000).exact
    for q in (q1, q2, small_q2):
        assert "hat" not in q.__dict__

    built = []

    def recording(build_fn):
        def build(*args, **kwargs):
            q = build_fn(*args, **kwargs)
            built.append(q)
            return q

        return build

    monkeypatch.setattr(simulate_module, "build_q1", recording(build_q1))
    monkeypatch.setattr(simulate_module, "build_q2", recording(build_q2))
    run_table1(reps=2, seed=3)
    assert len(built) == 1  # q1: the replicates' bases are stacked arrays
    assert all("hat" not in q.__dict__ for q in built)
    # with every stacked row flagged, each replicate builds its bases one by one
    monkeypatch.setattr(
        simulate_module,
        "q2_stack",
        lambda q1, raw: q2_stack(q1, raw)._replace(ok=np.zeros(raw.shape[0], dtype=bool)),
    )
    built.clear()
    run_table1(reps=2, seed=3)
    assert len(built) == 5
    assert all("hat" not in q.__dict__ for q in built)


def test_twenty_thousand_pairs_run_in_thin_memory(monkeypatch):
    # fail fast instead of allocating 3.2 GB should a path ask for the dense hat
    monkeypatch.setattr(QMatrix, "hat", property(lambda q: pytest.fail("dense hat built")))
    design, data = _pairs_with_covariate(20_000, 11)
    tracemalloc.start()
    try:
        q2 = build_q2(design, poly_degree=1)
        report = analyze_experiment(design, data, q=q2)
        result = permutation_test(design, data, q2, max_draws=99, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a dense 20,000 x 20,000 hat matrix alone would take 3.2 GB
    assert peak < 100 * 2**20, f"peak traced memory {peak / 2**20:.1f} MiB"
    assert np.isfinite(report.estimates["s2"])
    assert result.draws == 99


def test_monte_carlo_chunks_stay_in_thin_memory_at_twenty_thousand_pairs():
    design, data = _pairs_with_covariate(20_000, 12)
    q2 = build_q2(design, poly_degree=1)
    tracemalloc.start()
    try:
        result = permutation_test(design, data, q2, max_draws=2_000, seed=6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one flat 2,000-draw chunk of 20,000 block effects alone would take 320 MB
    assert peak < 100 * 2**20, f"peak traced memory {peak / 2**20:.1f} MiB"
    assert not result.exact and result.draws == 2_000
    assert 0.0 < result.p_value <= 1.0


def test_one_factorization_per_basis_and_none_per_test(monkeypatch):
    calls = []

    def counting(qr):
        def counted(*args, **kwargs):
            calls.append(qr)
            return qr(*args, **kwargs)

        return counted

    monkeypatch.setattr(np.linalg, "qr", counting(np.linalg.qr))
    monkeypatch.setattr(scipy.linalg, "qr", counting(scipy.linalg.qr))
    for n_blocks, max_draws in ((40, 200), (8, 1000)):  # Monte Carlo, then exact
        design, data = _pairs_with_covariate(n_blocks, 13)
        build_q1(design)  # cached on the design
        xbar = np.random.default_rng(n_blocks).normal(size=(n_blocks, 3))
        calls.clear()
        q2 = build_q2(design, xbar=xbar)
        assert len(calls) == 1
        permutation_test(design, data, q2, max_draws=max_draws, seed=1)
        assert len(calls) == 1
