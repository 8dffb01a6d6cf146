"""Independent reference values for the trial-analysis op.

A second implementation of what ``stratavar analyze`` and ``stratavar
hettest`` compute for one experiment file, written from the formulas
(weighted difference in means, the s1/s2/s3/paired estimators and the
partial F statistic) with a thin orthonormal basis instead of the B x B hat
matrix. It works from the generator's in-memory arrays, never from the
program. Exact p-values come from full enumeration; Monte Carlo p-values
from an independent stream of draws, compared with a binomial tolerance.
"""
from __future__ import annotations

import itertools
from statistics import NormalDist

import numpy as np

ALPHA = 0.05
POLY = 2
MC_REFERENCE_DRAWS = 1_000
MC_CHUNK = 256
DENOMINATOR_TOL = 1e-12


def _orthonormal(cols: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(cols)
    return q


class TrialGeometry:
    """Block summaries and the bases that analyze and hettest project onto."""

    def __init__(self, blocks: list[dict]):
        self.blocks = blocks
        self.sizes = np.array([b["z"].shape[0] for b in blocks], dtype=np.int64)
        self.treated = np.array([int(b["z"].sum()) for b in blocks], dtype=np.int64)
        self.n_blocks = len(blocks)
        self.w = self.n_blocks * self.sizes / self.sizes.sum()
        self.tau = np.array(
            [b["r"][b["z"] == 1].mean() - b["r"][b["z"] == 0].mean() for b in blocks]
        )
        # block means of x1, x2 then x1^2, x2^2: the --q-spec x1,x2 --poly 2 columns
        xmeans = np.vstack(
            [np.concatenate([(b["x"] ** p).mean(axis=0) for p in range(1, POLY + 1)]) for b in blocks]
        )
        q1_cols = [np.ones(self.n_blocks)]
        if not np.allclose(self.w, 1.0, rtol=0.0, atol=1e-12):
            q1_cols.append(self.w - 1.0)
        q1 = np.column_stack(q1_cols)
        raw = self.w[:, None] * xmeans
        u1 = _orthonormal(q1)
        self.u_cov = _orthonormal(raw - u1 @ (u1.T @ raw))
        self.u = _orthonormal(np.column_stack([q1, raw]))
        self.rank = self.u.shape[1]
        self.k = self.u_cov.shape[1]
        self.leverages = np.sum(self.u**2, axis=1)

    def residual(self, v: np.ndarray) -> np.ndarray:
        """Residual of each row of v off the full basis."""
        return v - (v @ self.u) @ self.u.T

    def f_values(self, tau_rows: np.ndarray) -> np.ndarray:
        v = tau_rows * self.w
        num = np.square(v @ self.u_cov).sum(axis=1)
        den = np.square(self.residual(v)).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            f = (num / den) * ((self.n_blocks - self.rank) / self.k)
        f[den <= DENOMINATOR_TOL * np.square(v).sum(axis=1)] = np.inf
        return f


def design_class(sizes: np.ndarray, treated: np.ndarray) -> str:
    mins = np.minimum(treated, sizes - treated)
    if np.all(mins == 1):
        return "fine"
    if np.all(mins >= 2):
        return "coarse"
    return "mixed"


def analyze_values(g: TrialGeometry) -> dict:
    """delta_hat and the 'auto' estimator set with their intervals."""
    b = g.n_blocks
    delta = float(g.w @ g.tau) / b
    one_minus = 1.0 - g.leverages
    r1 = g.residual((g.w * g.tau / np.sqrt(one_minus))[None, :])[0]
    r = g.residual((g.w * g.tau)[None, :])[0]
    estimates = {}
    cls = design_class(g.sizes, g.treated)
    if cls == "coarse":
        raise ValueError("the reference does not cover coarse designs")
    if np.all(g.sizes == 2):
        estimates["paired"] = float(np.sum((g.tau - g.tau.mean()) ** 2)) / (b * (b - 1))
    estimates["s1"] = float(r1 @ r1) / b**2
    estimates["s2"] = float(np.sum(r**2 / one_minus**2)) / b**2
    estimates["s3"] = float(np.sum(r**2 / one_minus)) / b**2
    z = NormalDist().inv_cdf(1.0 - ALPHA / 2.0)
    intervals = {k: [delta - z * v**0.5, delta + z * v**0.5] for k, v in estimates.items()}
    return {
        "delta_hat": delta,
        "design_class": cls,
        "n_blocks": b,
        "n_units": int(g.sizes.sum()),
        "estimates": estimates,
        "intervals": intervals,
        "rank": g.rank,
    }


def _option_taus(r: np.ndarray, k: int) -> np.ndarray:
    """Block effect of every treated subset of one block."""
    n = r.shape[0]
    combos = np.array(list(itertools.combinations(range(n), k)), dtype=np.int64)
    tsum = r[combos].sum(axis=1)
    return tsum / k - (r.sum() - tsum) / (n - k)


def exact_p_value(g: TrialGeometry, f_obs: float, total: int) -> float:
    options = [_option_taus(b["r"], int(b["z"].sum())) for b in g.blocks]
    flat = np.arange(total, dtype=np.int64)
    stride = 1
    t_rows = np.empty((total, g.n_blocks))
    for i in range(g.n_blocks - 1, -1, -1):
        count = options[i].shape[0]
        t_rows[:, i] = options[i][(flat // stride) % count]
        stride *= count
    thresh = f_obs - 1e-12 * abs(f_obs)
    return float(np.sum(g.f_values(t_rows) >= thresh)) / total


def mc_p_value(g: TrialGeometry, f_obs: float, rng: np.random.Generator) -> float:
    """Add-one Monte Carlo p-value from MC_REFERENCE_DRAWS uniform assignments."""
    groups = {}
    for i, (n, k) in enumerate(zip(g.sizes, g.treated)):
        groups.setdefault((int(n), int(k)), []).append(i)
    thresh = f_obs - 1e-12 * abs(f_obs)
    hits = 0
    for start in range(0, MC_REFERENCE_DRAWS, MC_CHUNK):
        m = min(MC_CHUNK, MC_REFERENCE_DRAWS - start)
        t_rows = np.empty((m, g.n_blocks))
        for (n, k), idx in groups.items():
            resp = np.vstack([g.blocks[i]["r"] for i in idx])
            keys = rng.random((m, len(idx), n))
            treated = np.argsort(keys, axis=2)[:, :, :k]
            tsum = np.take_along_axis(resp[None, :, :], treated, axis=2).sum(axis=2)
            t_rows[:, idx] = tsum / k - (resp.sum(axis=1)[None, :] - tsum) / (n - k)
        hits += int(np.sum(g.f_values(t_rows) >= thresh))
    return (1 + hits) / (1 + MC_REFERENCE_DRAWS)


def trial_reference(entry: dict, seed: int) -> dict:
    """Reference values for one trial-analysis file."""
    g = TrialGeometry(entry["blocks"])
    ref = analyze_values(g)
    f_obs = float(g.f_values(g.tau[None, :])[0])
    exact = entry["n_assignments"] <= entry["max_draws"]
    if exact:
        p = exact_p_value(g, f_obs, entry["n_assignments"])
    else:
        p = mc_p_value(g, f_obs, np.random.default_rng(np.random.SeedSequence([seed, 4, g.n_blocks])))
    ref["hettest"] = {
        "f_observed": f_obs,
        "p_value": p,
        "exact": exact,
        "draws": entry["n_assignments"] if exact else entry["max_draws"],
        "numerator_df": g.k,
        "denominator_df": g.n_blocks - g.rank,
        "seed": None if exact else entry["hettest_seed"],
        "reference_draws": MC_REFERENCE_DRAWS,
    }
    return ref
