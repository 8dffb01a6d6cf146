"""Reading and writing experiments as flat CSV files.

One row per unit with columns ``block_id, unit_id, treated, response`` and
optional covariates ``x1..xK`` (contiguously numbered). ``treated`` must be
0 or 1; ``response`` must be a finite number, and may be empty on every row
(a design-only file) but not on some rows only. Covariate cells must be
finite numbers. Blocks are ordered by first appearance, units within a
block likewise.
"""
from __future__ import annotations

import csv
import math
import re
from pathlib import Path

import numpy as np

from ._util import fmt_raw
from .design import (
    Assignment,
    AssignmentAndOutcomes,
    Block,
    BlockDesign,
    validate_design,
)
from .errors import ParseError, SchemaError

REQUIRED_COLUMNS = ("block_id", "unit_id", "treated", "response")


def _covariate_columns(header: list[str]) -> list[str]:
    xcols = {}
    for name in header:
        m = re.fullmatch(r"x(\d+)", name)
        if m:
            xcols[int(m.group(1))] = name
    if not xcols:
        return []
    ks = sorted(xcols)
    if ks != list(range(1, len(ks) + 1)):
        raise SchemaError(f"covariate columns must be x1..xK without gaps, got {sorted(xcols.values())}")
    return [xcols[k] for k in ks]


def ingest_csv(path) -> tuple[BlockDesign, AssignmentAndOutcomes | None]:
    """Parse an experiment CSV into a validated design plus observed data.

    Returns ``(design, data)``; ``data`` is None for design-only files
    (every response empty), whose treated indicators still determine each
    block's treated count. Schema problems raise SchemaError, cell-level
    problems ParseError (with the offending row), and design violations
    propagate from :func:`stratavar.design.validate_design`.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise SchemaError(f"{path}: empty file")
        header = [h.strip() for h in reader.fieldnames]
        missing = [c for c in REQUIRED_COLUMNS if c not in header]
        if missing:
            raise SchemaError(f"{path}: missing required columns {missing}")
        known = set(REQUIRED_COLUMNS)
        xnames = _covariate_columns(header)
        extra = [c for c in header if c not in known and c not in xnames]
        if extra:
            raise SchemaError(f"{path}: unrecognized columns {extra}")

        block_order: list[str] = []
        rows_by_block: dict[str, list[dict]] = {}
        seen_units: set[tuple[str, str]] = set()
        for lineno, row in enumerate(reader, start=2):
            bid = (row["block_id"] or "").strip()
            uid = (row["unit_id"] or "").strip()
            if not bid or not uid:
                raise ParseError(f"{path}:{lineno}: empty block_id or unit_id")
            if (bid, uid) in seen_units:
                raise ParseError(f"{path}:{lineno}: duplicate unit {uid!r} in block {bid!r}")
            seen_units.add((bid, uid))
            t_raw = (row["treated"] or "").strip()
            if t_raw not in ("0", "1"):
                raise ParseError(f"{path}:{lineno}: treated must be 0 or 1, got {t_raw!r}")
            resp_raw = (row["response"] or "").strip()
            resp = None
            if resp_raw:
                try:
                    resp = float(resp_raw)
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: response {resp_raw!r} is not a number")
                if not math.isfinite(resp):
                    raise ParseError(f"{path}:{lineno}: response {resp_raw!r} is not finite")
            covs = []
            for name in xnames:
                raw = (row.get(name) or "").strip()
                try:
                    value = float(raw)
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: column {name} value {raw!r} is not a number")
                if not math.isfinite(value):
                    raise ParseError(f"{path}:{lineno}: column {name} value {raw!r} is not finite")
                covs.append(value)
            if bid not in rows_by_block:
                block_order.append(bid)
                rows_by_block[bid] = []
            rows_by_block[bid].append(
                {"treated": int(t_raw), "response": resp, "covs": covs, "line": lineno}
            )

    if not block_order:
        raise SchemaError(f"{path}: no data rows")

    responses_present = [
        r["response"] is not None for rows in rows_by_block.values() for r in rows
    ]
    if any(responses_present) and not all(responses_present):
        raise ParseError(f"{path}: responses must be given for all units or none")
    has_responses = all(responses_present)

    blocks = []
    z_blocks = []
    r_blocks = []
    for bid in block_order:
        rows = rows_by_block[bid]
        z = tuple(r["treated"] for r in rows)
        cov = (
            np.array([r["covs"] for r in rows], dtype=float) if xnames else None
        )
        blocks.append(Block(block_id=bid, n=len(rows), n_treated=sum(z), covariates=cov))
        z_blocks.append(z)
        if has_responses:
            r_blocks.append(np.array([r["response"] for r in rows], dtype=float))

    design = validate_design(BlockDesign(tuple(blocks)))
    if not has_responses:
        return design, None
    data = AssignmentAndOutcomes(
        assignment=Assignment(z=tuple(z_blocks)), responses=tuple(r_blocks)
    )
    return design, data


def write_experiment_csv(
    path, design: BlockDesign, assignment: Assignment, responses=None
) -> None:
    """Serialize a design and assignment (plus optional responses) to the CSV schema."""
    path = Path(path)
    k = design.covariate_dim
    header = list(REQUIRED_COLUMNS) + [f"x{j}" for j in range(1, k + 1)]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, blk in enumerate(design.blocks):
            z = assignment.z[i]
            for j in range(blk.n):
                row = [blk.block_id, str(j + 1), str(int(z[j]))]
                row.append("" if responses is None else fmt_raw(responses[i][j]))
                if k:
                    row.extend(fmt_raw(v) for v in np.asarray(blk.covariates)[j])
                writer.writerow(row)
