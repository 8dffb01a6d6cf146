"""Block-randomized designs and treatment assignments.

A design is an ordered set of blocks (strata) held as packed unit arrays:
one entry per block in ``ids``, ``sizes`` and ``treated_counts``, and one
(N, K) ``covariates`` array over the units of all blocks, concatenated in
block order. Block ``i`` holds ``n_i`` units of which exactly
``n_treated_i`` receive treatment, and the randomization distribution is
uniform over the product of within-block treated subsets. Assignments and
observed data are packed the same way, as flat (N,) indicators and
responses with the (B,) lengths of their blocks.

Every constructor packs its input once; the arrays are the only state the
library reads and are treated as immutable once validated. The per-block
forms (``BlockDesign.blocks``, ``Assignment.z``,
``AssignmentAndOutcomes.responses``) are read-only views over the arrays,
built on first access. Only a design's covariates are packed lazily, so
that misshapen ones raise at :func:`validate_design`.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import FrozenInstanceError, dataclass
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


class _Frozen:
    """Attributes are set once, in ``__dict__``, by a constructor or a cached property."""

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _views(flat: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, ...]:
    """Read-only per-block slices of a flat unit array with blocks of ``lengths`` units."""
    view = flat.view()
    view.flags.writeable = False
    ends = np.cumsum(lengths).tolist()
    return tuple(view[a:b] for a, b in zip([0] + ends[:-1], ends))


def _pack(parts, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Per-block sequences as one flat array, and the (B,) lengths of the blocks."""
    arrays = [np.asarray(p, dtype=dtype) for p in parts]
    lengths = np.fromiter(map(len, arrays), dtype=np.int64, count=len(arrays))
    return (np.concatenate(arrays) if arrays else np.empty(0, dtype)), lengths


class BlockDesign(_Frozen):
    """An ordered collection of blocks, held as packed unit arrays.

    ``BlockDesign(blocks)`` packs a sequence of :class:`Block` into ``ids``,
    ``sizes`` and ``treated_counts`` and keeps the blocks, whose covariates
    it packs on first use; a design built from arrays derives ``blocks``
    from them on first access.
    """

    def __init__(self, blocks: Sequence[Block]):
        blocks = tuple(blocks)
        self.__dict__.update(
            blocks=blocks,
            ids=tuple(b.block_id for b in blocks),
            sizes=np.array([b.n for b in blocks], dtype=np.int64),
            treated_counts=np.array([b.n_treated for b in blocks], dtype=np.int64),
        )

    @classmethod
    def _from_arrays(cls, ids, sizes, treated_counts, covariates=None) -> "BlockDesign":
        """A design over packed arrays, taken as they are: (B,) ids, int64 sizes
        and treated counts, and an (N, K) float covariate array or None."""
        design = cls.__new__(cls)
        design.__dict__.update(
            ids=tuple(ids), sizes=sizes, treated_counts=treated_counts, covariates=covariates
        )
        return design

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

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        x, y = self.covariates, other.covariates
        return (
            self.ids == other.ids
            and np.array_equal(self.sizes, other.sizes)
            and np.array_equal(self.treated_counts, other.treated_counts)
            and (x is y or (x is not None and y is not None and np.array_equal(x, y)))
        )

    def __hash__(self):
        return hash((self.ids, tuple(self.sizes.tolist()), tuple(self.treated_counts.tolist())))

    def __repr__(self):
        return f"BlockDesign(blocks={self.blocks!r})"

    @cached_property
    def blocks(self) -> tuple[Block, ...]:
        if self.covariates is None:
            covs = itertools.repeat(None)
        else:
            covs = _views(self.covariates, self.sizes)
        return tuple(
            map(Block, self.ids, self.sizes.tolist(), self.treated_counts.tolist(), covs)
        )

    @cached_property
    def covariates(self) -> np.ndarray | None:
        """(N, K) unit-level covariates over the concatenated units, None when none were supplied.

        Packing a design's blocks raises DimensionMismatch when only some
        blocks carry covariates, then names the first block whose covariates
        are not (n_i, K) rows, then a width that differs across blocks.
        """
        has_cov = [b.covariates is not None for b in self.blocks]
        if not any(has_cov):
            return None
        if not all(has_cov):
            raise DimensionMismatch("covariates must be supplied for all blocks or none")
        covs = [np.asarray(b.covariates, dtype=float) for b in self.blocks]
        for b, arr in zip(self.blocks, covs):
            if arr.ndim != 2 or arr.shape[0] != b.n:
                raise DimensionMismatch(
                    f"block {b.block_id!r} covariates have shape {arr.shape}, expected ({b.n}, K)"
                )
        dims = {arr.shape[1] for arr in covs}
        if len(dims) > 1:
            raise DimensionMismatch(f"covariate dimension differs across blocks: {sorted(dims)}")
        return np.concatenate(covs)

    @cached_property
    def n_blocks(self) -> int:
        return len(self.sizes)

    @cached_property
    def n_units(self) -> int:
        return int(self.sizes.sum())

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
    def _group_order(self) -> np.ndarray:
        """Block indices in the order of ``size_groups``: the columns of grouped block arrays."""
        return np.concatenate([idx for _, _, idx, _ in self.size_groups])

    @cached_property
    def covariate_dim(self) -> int:
        """Number of unit-level covariates (0 when none were supplied)."""
        return 0 if self.covariates is None else int(self.covariates.shape[1])

    def block_covariates(self) -> list[np.ndarray]:
        """Per-block (n_i, K) covariate arrays; raises if none were supplied."""
        if self.covariate_dim == 0:
            raise DimensionMismatch("design carries no unit-level covariates")
        return list(_views(self.covariates, self.sizes))


class Assignment(_Frozen):
    """Realized treatment indicators, one binary tuple per block.

    Packed once, as flat (N,) int64 ``indicators`` and the (B,) ``lengths``
    of the blocks; ``z`` is a view over them, built on first access.
    """

    def __init__(self, z):
        indicators, lengths = _pack(z, np.int64)
        self.__dict__.update(indicators=indicators, lengths=lengths)

    @classmethod
    def _from_flat(cls, indicators: np.ndarray, lengths: np.ndarray) -> "Assignment":
        assignment = cls.__new__(cls)
        assignment.__dict__.update(indicators=indicators, lengths=lengths)
        return assignment

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return np.array_equal(self.lengths, other.lengths) and np.array_equal(
            self.indicators, other.indicators
        )

    def __hash__(self):
        return hash((tuple(self.lengths.tolist()), tuple(self.indicators.tolist())))

    def __repr__(self):
        return f"Assignment(z={self.z!r})"

    @cached_property
    def z(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(v.tolist()) for v in _views(self.indicators, self.lengths))


class AssignmentAndOutcomes(_Frozen):
    """An assignment together with observed responses aligned to units.

    Packed as the flat (N,) float responses ``r`` and the (B,) ``lengths``
    of its blocks; ``responses``, one array per block, is a view built on
    first access.
    """

    def __init__(self, assignment: Assignment, responses):
        r, lengths = _pack(responses, float)
        self.__dict__.update(assignment=assignment, r=r, lengths=lengths)

    @classmethod
    def _from_flat(cls, z: np.ndarray, r: np.ndarray, lengths: np.ndarray):
        """Data over flat (N,) int64 indicators ``z`` and float responses ``r``."""
        data = cls.__new__(cls)
        data.__dict__.update(assignment=Assignment._from_flat(z, lengths), r=r, lengths=lengths)
        return data

    def __repr__(self):
        return (
            f"AssignmentAndOutcomes(assignment={self.assignment!r}, responses={self.responses!r})"
        )

    @cached_property
    def responses(self) -> tuple[np.ndarray, ...]:
        return _views(self.r, self.lengths)


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
        i = int(np.argmax(bad))
        block_id, n, n_treated = design.ids[i], int(sizes[i]), int(treated[i])
        if n < 2:
            raise InfeasibleBlock(f"block {block_id!r} has n={n} < 2")
        raise InfeasibleBlock(
            f"block {block_id!r} has n_treated={n_treated} outside [1, {n - 1}]"
        )
    stacked = design.covariates
    if stacked is not None and not np.isfinite(stacked).all():
        finite = np.isfinite(stacked).all(axis=1)
        i = int(np.searchsorted(design.unit_starts, np.argmin(finite), side="right")) - 1
        raise DimensionMismatch(
            f"block {design.ids[i]!r} covariates contain non-finite values"
        )
    return design


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
    return math.prod(map(math.comb, design.sizes.tolist(), design.treated_counts.tolist()))


def _treated_subsets(n: int, k: int) -> np.ndarray:
    """(C(n, k), k) unit indices of every k-subset of n units, in lexicographic order."""
    combos = list(itertools.combinations(range(n), k))
    return np.array(combos, dtype=np.int64).reshape(math.comb(n, k), k)


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
    per_block = [np.zeros((1, 0), dtype=np.int64)]  # so that no blocks give one empty assignment
    for n, k in zip(design.sizes.tolist(), design.treated_counts.tolist()):
        rows = np.zeros((math.comb(n, k), n), dtype=np.int64)
        np.put_along_axis(rows, _treated_subsets(n, k), 1, axis=1)
        per_block.append(rows)
    for combo in itertools.product(*per_block):
        yield Assignment._from_flat(np.concatenate(combo), design.sizes)


def _smallest_keys(keys: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``k`` smallest of each row of uniform ``keys``: a uniform k-subset."""
    return np.argpartition(keys, k - 1, axis=-1)[..., :k]


def _draw_treated(design: BlockDesign, rng, reps: int | None = None) -> np.ndarray:
    """(N,) treated flags of one uniform assignment, one (G, n) key draw per group;
    with ``reps``, (reps, N) flags of one assignment per row from (reps, G, n) keys."""
    lead = () if reps is None else (reps,)
    z = np.zeros(lead + (design.n_units,), dtype=bool)
    for n, kt, idx, units in design.size_groups:
        keys = rng.random(lead + (idx.shape[0], n))
        treated = units[:, :1] + _smallest_keys(keys, kt)  # a block's units are consecutive
        np.put_along_axis(z, treated.reshape(lead + (-1,)), True, axis=-1)
    return z


def sample_assignment(design: BlockDesign, seed) -> Assignment:
    """Draw one assignment uniformly at random, independently within blocks.

    ``seed`` may be an int (deterministic draws), a numpy Generator, or a
    SeedSequence. The same int seed always reproduces the same assignment.
    Each (size, treated count) group draws a uniform key per unit, and each
    block treats its units with the smallest keys.
    """
    z = _draw_treated(design, as_rng(seed))
    return Assignment._from_flat(z.astype(np.int64), design.sizes)
