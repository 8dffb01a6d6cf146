"""Block-randomized designs and treatment assignments.

A design is a list of blocks (strata). Block ``i`` holds ``n_i`` units of
which exactly ``n_treated_i`` receive treatment, and the randomization
distribution is uniform over the product of within-block treated subsets.
Everything downstream (weights, enumeration, sampling, estimation) consumes
these two dataclasses, so they are treated as immutable once validated.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from ._util import as_rng
from .errors import DimensionMismatch, InfeasibleBlock, SpaceTooLarge, TooFewBlocks

DEFAULT_ENUMERATION_CAP = 1_000_000


class DesignClass(Enum):
    """Stratification granularity.

    FINE: every block has a singleton arm (min(n_treated, n_control) == 1).
    COARSE: every block has at least two units in each arm.
    MIXED: anything else.
    """

    FINE = "fine"
    COARSE = "coarse"
    MIXED = "mixed"


@dataclass(frozen=True)
class Block:
    """One stratum: ``n`` units, ``n_treated`` of them assigned to treatment.

    ``covariates`` is an optional (n, K) array of unit-level covariates.
    """

    block_id: str
    n: int
    n_treated: int
    covariates: np.ndarray | None = None

    @property
    def n_control(self) -> int:
        return self.n - self.n_treated


@dataclass(frozen=True)
class BlockDesign:
    """An ordered collection of blocks."""

    blocks: tuple[Block, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))

    @classmethod
    def from_sizes(
        cls,
        sizes: Sequence[int],
        n_treated: Sequence[int],
        covariates: Sequence[np.ndarray] | None = None,
        ids: Sequence[str] | None = None,
    ) -> "BlockDesign":
        """Build a design from parallel lists of block sizes and treated counts."""
        if len(sizes) != len(n_treated):
            raise DimensionMismatch(
                f"sizes has {len(sizes)} entries but n_treated has {len(n_treated)}"
            )
        if covariates is not None and len(covariates) != len(sizes):
            raise DimensionMismatch(
                f"covariates has {len(covariates)} entries for {len(sizes)} blocks"
            )
        if ids is None:
            ids = [str(i + 1) for i in range(len(sizes))]
        blocks = []
        for i, (n, k) in enumerate(zip(sizes, n_treated)):
            cov = None if covariates is None else np.asarray(covariates[i], dtype=float)
            blocks.append(Block(block_id=str(ids[i]), n=int(n), n_treated=int(k), covariates=cov))
        return cls(tuple(blocks))

    @cached_property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @cached_property
    def n_units(self) -> int:
        return int(sum(b.n for b in self.blocks))

    @cached_property
    def sizes(self) -> np.ndarray:
        return np.array([b.n for b in self.blocks], dtype=np.int64)

    @cached_property
    def treated_counts(self) -> np.ndarray:
        return np.array([b.n_treated for b in self.blocks], dtype=np.int64)

    @cached_property
    def control_counts(self) -> np.ndarray:
        return self.sizes - self.treated_counts

    @cached_property
    def unit_starts(self) -> np.ndarray:
        """Offset of each block's first unit in the concatenated unit arrays."""
        return np.concatenate(([0], np.cumsum(self.sizes)[:-1]))

    @cached_property
    def size_groups(self) -> tuple[tuple[int, int, np.ndarray, np.ndarray], ...]:
        """Blocks grouped by (size, treated count), in sorted order.

        One ``(n, k, idx, units)`` per group: ``idx`` lists the group's blocks
        in design order and row g of the (G, n) ``units`` holds the offsets of
        block idx[g]'s units in the concatenated unit arrays.
        """
        groups = []
        for n, k in sorted(set(zip(self.sizes.tolist(), self.treated_counts.tolist()))):
            idx = np.flatnonzero((self.sizes == n) & (self.treated_counts == k))
            groups.append((n, k, idx, self.unit_starts[idx, None] + np.arange(n)))
        return tuple(groups)

    @cached_property
    def covariate_dim(self) -> int:
        """Number of unit-level covariates (0 when none were supplied)."""
        first = self.blocks[0].covariates if self.blocks else None
        return 0 if first is None else int(np.asarray(first).shape[1])

    def block_covariates(self) -> list[np.ndarray]:
        """Per-block (n_i, K) covariate arrays; raises if none were supplied."""
        if self.covariate_dim == 0:
            raise DimensionMismatch("design carries no unit-level covariates")
        return [np.asarray(b.covariates, dtype=float) for b in self.blocks]


@dataclass(frozen=True)
class Assignment:
    """Realized treatment indicators, one binary tuple per block."""

    z: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class AssignmentAndOutcomes:
    """An assignment together with observed responses aligned to units."""

    assignment: Assignment
    responses: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "responses", tuple(np.asarray(r, dtype=float) for r in self.responses)
        )


def validate_design(design: BlockDesign) -> BlockDesign:
    """Check design invariants and return the design unchanged.

    Raises:
        TooFewBlocks: fewer than two blocks.
        InfeasibleBlock: a block with n < 2 or without both arms.
        DimensionMismatch: covariate arrays inconsistent across blocks.
    """
    if design.n_blocks < 2:
        raise TooFewBlocks(f"need at least 2 blocks, got {design.n_blocks}")
    sizes, treated = design.sizes, design.treated_counts
    bad = (sizes < 2) | (treated < 1) | (treated > sizes - 1)
    if bad.any():
        b = design.blocks[int(np.argmax(bad))]
        if b.n < 2:
            raise InfeasibleBlock(f"block {b.block_id!r} has n={b.n} < 2")
        raise InfeasibleBlock(
            f"block {b.block_id!r} has n_treated={b.n_treated} outside [1, {b.n - 1}]"
        )
    has_cov = [b.covariates is not None for b in design.blocks]
    if any(has_cov):
        if not all(has_cov):
            raise DimensionMismatch("covariates must be supplied for all blocks or none")
        covs = [b.covariates for b in design.blocks]
        try:
            stacked = np.concatenate(covs).astype(float, copy=False)
        except (ValueError, TypeError):  # ranks, widths or types differ
            stacked = None
        if stacked is None or stacked.ndim != 2 or not np.array_equal(
            np.fromiter(map(len, covs), dtype=np.int64, count=len(covs)), design.sizes
        ):
            stacked = _stack_block_by_block(design)
        if not np.isfinite(stacked).all():
            finite = np.isfinite(stacked).all(axis=1)
            i = int(np.searchsorted(design.unit_starts, np.argmin(finite), side="right")) - 1
            raise DimensionMismatch(
                f"block {design.blocks[i].block_id!r} covariates contain non-finite values"
            )
    return design


def _stack_block_by_block(design: BlockDesign) -> np.ndarray:
    """The (N, K) covariates, converted and checked one block at a time.

    Names the first block whose covariates are misshapen, then a dimension
    that differs across blocks.
    """
    covs = [np.asarray(b.covariates, dtype=float) for b in design.blocks]
    for b, arr in zip(design.blocks, covs):
        if arr.ndim != 2 or arr.shape[0] != b.n:
            raise DimensionMismatch(
                f"block {b.block_id!r} covariates have shape {arr.shape}, expected ({b.n}, K)"
            )
    dims = {arr.shape[1] for arr in covs}
    if len(dims) > 1:
        raise DimensionMismatch(f"covariate dimension differs across blocks: {sorted(dims)}")
    return np.concatenate(covs)


def classify_design(design: BlockDesign) -> DesignClass:
    """FINE if every block has a singleton arm, COARSE if no block does, else MIXED."""
    mins = np.minimum(design.treated_counts, design.control_counts)
    if np.all(mins == 1):
        return DesignClass.FINE
    if np.all(mins >= 2):
        return DesignClass.COARSE
    return DesignClass.MIXED


def block_weights(design: BlockDesign) -> np.ndarray:
    """Relative block sizes w_i = B * n_i / N; averages to one exactly."""
    return design.n_blocks * design.sizes / design.n_units


def n_assignments(design: BlockDesign) -> int:
    """Exact size of the assignment space, prod_i C(n_i, n_treated_i)."""
    count = 1
    for b in design.blocks:
        count *= math.comb(b.n, b.n_treated)
    return count


def _block_subset_tuples(block: Block) -> list[tuple[int, ...]]:
    """All binary treated indicators for one block, in lexicographic subset order."""
    out = []
    for combo in itertools.combinations(range(block.n), block.n_treated):
        z = [0] * block.n
        for j in combo:
            z[j] = 1
        out.append(tuple(z))
    return out


def enumerate_assignments(
    design: BlockDesign, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[Assignment]:
    """Yield every assignment, lexicographic by block then by treated subset.

    Raises SpaceTooLarge before yielding anything when the space exceeds ``cap``.
    """
    total = n_assignments(design)
    if total > cap:
        raise SpaceTooLarge(
            f"assignment space has {total} elements, above the cap of {cap}"
        )
    per_block = [_block_subset_tuples(b) for b in design.blocks]
    for combo in itertools.product(*per_block):
        yield Assignment(z=tuple(combo))


def _draw_treated(design: BlockDesign, rng: np.random.Generator) -> np.ndarray:
    """(N,) treated flags of one uniform assignment, one permutation per block."""
    z = np.zeros(design.n_units, dtype=bool)
    for start, b in zip(design.unit_starts.tolist(), design.blocks):
        z[start + rng.permutation(b.n)[: b.n_treated]] = True
    return z


def _assignment_of(design: BlockDesign, z: np.ndarray) -> Assignment:
    """The assignment of (N,) treated flags."""
    parts = np.split(z.astype(np.int64), design.unit_starts[1:])
    return Assignment(z=tuple(tuple(part.tolist()) for part in parts))


def sample_assignment(design: BlockDesign, seed) -> Assignment:
    """Draw one assignment uniformly at random, independently within blocks.

    ``seed`` may be an int (deterministic draws), a numpy Generator, or a
    SeedSequence. The same int seed always reproduces the same assignment.
    """
    return _assignment_of(design, _draw_treated(design, as_rng(seed)))
