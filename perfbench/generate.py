"""Seeded inputs for the benchmark workloads.

Nothing here imports stratavar: the program under test sees only the files
and values this module writes. The structure of every workload (block
counts, block-size mix, assignment-space sizes) is fixed, so runs with
different seeds do the same amount of work; the seed draws the values
(covariates, responses, study seeds).

On a shared machine a process can run at one of two speeds, about a factor
of two apart, for seconds at a time. Op sizes therefore rise in small steps
through the middle of every workload's pass: the median op latency then
moves with the share of slow time, as throughput does, instead of jumping
between the two speeds of one group of equal ops.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# ---------------------------------------------------------------------------
# trial-analysis: experiment CSV files
# ---------------------------------------------------------------------------

# A run opens with the two large trials, where the B x B hat matrix
# dominates, once; then it repeats a pass over the other files. Keeping the
# large trials out of the pass keeps the ops above the tail percentile at
# two whatever the number of passes, so the tail falls inside the dense
# group of B = 1,000 files.
LEAD_IN_BLOCKS = (2000, 4000)
# Files whose assignment space is enumerated exactly, as ((pairs, triplets),
# number of files per pass): 15 to 17 blocks with 2**16 = 65,536 up to
# 2**13 * 3**3 = 221,184 assignments. A lone triplet would have leverage
# one under the weights column.
EXACT_FILES = (((16, 0), 2), ((13, 2), 2), ((12, 3), 2), ((17, 0), 2), ((14, 2), 2), ((13, 3), 2))
EXACT_MAX_DRAWS = 250_000
# Files that hettest samples with 999 draws, as (blocks, files per pass).
# With the exact files they rise in small steps through the middle of a pass.
SAMPLED_BLOCKS = (
    (24, 2), (32, 2), (48, 2), (64, 3), (96, 3), (128, 3), (192, 3),
    (256, 3), (384, 3), (512, 4), (768, 4), (1000, 6),
)
SAMPLED_MAX_DRAWS = 999
SIZE_MIX = {2: 0.5, 3: 0.3, 4: 0.2}
HETEROGENEITY = 0.3


def _block_layout(rng: np.random.Generator, n_blocks: int) -> tuple[np.ndarray, np.ndarray]:
    sizes = rng.choice(list(SIZE_MIX), size=n_blocks, p=list(SIZE_MIX.values()))
    treated = np.array([rng.integers(1, n) for n in sizes])
    return sizes.astype(np.int64), treated.astype(np.int64)


def _trial_blocks(rng: np.random.Generator, sizes, treated) -> list[dict]:
    """Per-block arrays: treatment indicators, responses and two covariates."""
    blocks = []
    for n, k in zip(sizes, treated):
        z = np.zeros(n, dtype=np.int64)
        z[rng.permutation(n)[:k]] = 1
        center = rng.random(2)
        x = center[None, :] + 0.1 * rng.standard_normal((n, 2))
        effect = 1.0 + HETEROGENEITY * (center[0] - 0.5)
        level = rng.normal()
        r = level + z * effect + rng.standard_normal(n)
        blocks.append({"z": z, "r": r, "x": x})
    return blocks


def _write_trial_csv(path: Path, blocks: list[dict]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["block_id", "unit_id", "treated", "response", "x1", "x2"])
        for i, blk in enumerate(blocks):
            for j in range(blk["z"].shape[0]):
                writer.writerow(
                    [
                        f"b{i + 1:04d}",
                        str(j + 1),
                        str(int(blk["z"][j])),
                        repr(float(blk["r"][j])),
                        repr(float(blk["x"][j, 0])),
                        repr(float(blk["x"][j, 1])),
                    ]
                )


def trial_file(rng: np.random.Generator, sizes, treated, max_draws: int, path: Path) -> dict:
    """Write one experiment file; return its op arguments and in-memory blocks."""
    blocks = _trial_blocks(rng, sizes, treated)
    _write_trial_csv(path, blocks)
    return {
        "csv": str(path),
        "n_blocks": len(blocks),
        "n_units": int(np.sum(sizes)),
        "n_assignments": math.prod(math.comb(int(n), int(k)) for n, k in zip(sizes, treated)),
        "max_draws": max_draws,
        "hettest_seed": int(rng.integers(0, 2**31)),
        "blocks": blocks,
    }


def interleaved(items: list) -> list:
    """A fixed shuffle of a pass, the same for every seed, so that ops of one
    kind are spread over the pass instead of meeting the same slow spell."""
    return [items[i] for i in np.random.default_rng(0).permutation(len(items))]


def trial_analysis(seed: int, workdir: Path) -> list[dict]:
    """Write the experiment files; return one entry per file, in op order:
    the lead-in files first, then one pass."""
    layouts = [("exact", layout) for layout, copies in EXACT_FILES for _ in range(copies)]
    layouts += [("sampled", b) for b, copies in SAMPLED_BLOCKS for _ in range(copies)]
    layouts = [("sampled", b) for b in LEAD_IN_BLOCKS] + interleaved(layouts)
    files = []
    for index, (kind, layout) in enumerate(layouts):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1, index]))
        if kind == "exact":
            pairs, triplets = layout
            sizes = np.array([2] * pairs + [3] * triplets, dtype=np.int64)
            treated, max_draws = np.ones_like(sizes), EXACT_MAX_DRAWS
        else:
            sizes, treated = _block_layout(rng, layout)
            max_draws = SAMPLED_MAX_DRAWS
        path = workdir / f"trial_{index:02d}_B{len(sizes)}.csv"
        files.append(trial_file(rng, sizes, treated, max_draws, path))
    return files


# ---------------------------------------------------------------------------
# simulation-studies: one fresh study seed per op
# ---------------------------------------------------------------------------


def study_seed(seed: int, op_index: int) -> int:
    """Seed of the op_index-th study call of a run."""
    return int(np.random.SeedSequence([seed, 3, op_index]).generate_state(1)[0])


def write_manifest(workload: str, seed: int, workdir: Path) -> list[dict]:
    """Generate a workload's inputs under ``workdir`` and write manifest.json.

    Returns the full entries (including in-memory arrays) for the checks;
    the manifest the program side reads holds only what an op needs.
    """
    lead_in = 0
    if workload == "trial-analysis":
        entries = trial_analysis(seed, workdir)
        ops = [{k: v for k, v in e.items() if k != "blocks"} for e in entries]
        lead_in = len(LEAD_IN_BLOCKS)
    elif workload == "simulation-studies":
        entries = []
        ops = []
    else:
        raise ValueError(f"unknown workload {workload!r}")
    manifest = {"workload": workload, "seed": seed, "ops": ops, "lead_in": lead_in}
    (workdir / "manifest.json").write_text(json.dumps(manifest))
    return entries
