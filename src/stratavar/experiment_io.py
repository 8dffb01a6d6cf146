"""Reading and writing experiments as flat CSV files.

One row per unit with columns ``block_id, unit_id, treated, response`` and
optional covariates ``x1..xK`` (contiguously numbered). ``treated`` must be
0 or 1; ``response`` must be a finite number, and may be empty on every row
(a design-only file) but not on some rows only. Covariate cells must be
finite numbers. Header names are stripped of surrounding blanks and must
not repeat; blank lines are skipped. Blocks are ordered by first
appearance, units within a block likewise.

A valid file is read once, and its columns are checked as whole arrays.
When a check fails, the file is read a second time, row by row in file
order, and the error names the physical file line of the first faulty row.
"""
from __future__ import annotations

import csv
import itertools
import math
import re
from operator import itemgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from ._util import fmt_raw
from .design import Assignment, AssignmentAndOutcomes, BlockDesign, validate_design
from .errors import ParseError, SchemaError

REQUIRED_COLUMNS = ("block_id", "unit_id", "treated", "response")
_INDICATORS = {"0": 0, "1": 1}


def covariate_number(name: str) -> int | None:
    """K of a covariate column name ``xK``, or None when ``name`` is not of that form."""
    m = re.fullmatch(r"x(\d+)", name)
    return int(m.group(1)) if m else None


def _covariate_columns(header: list[str]) -> list[str]:
    xcols = {k: name for name in header if (k := covariate_number(name)) is not None}
    if not xcols:
        return []
    ks = sorted(xcols)
    if ks != list(range(1, len(ks) + 1)):
        raise SchemaError(f"covariate columns must be x1..xK without gaps, got {sorted(xcols.values())}")
    return [xcols[k] for k in ks]


def _number_fault(raw: str) -> str | None:
    """Why a cell is not a finite number under ``float()``, or None if it is one."""
    try:
        value = float(raw)
    except ValueError:
        return "is not a number"
    return None if math.isfinite(value) else "is not finite"


def _finite_floats(cells: Sequence[str]) -> np.ndarray | None:
    """``float()`` of every cell as one array, or None when a cell is not a finite number."""
    try:
        values = np.array(cells, dtype=float)  # converts each str by float()
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _first_fault(path: Path, header: list[str], xnames: list[str]) -> str:
    """``path:line: message`` of the earliest faulty data row, from a second read of the file.

    Rows are read in file order, their cells stripped and short rows padded
    with empty cells. Within a row the checks run in report order: ids,
    duplicate unit, treated, response (which may be empty), then each
    covariate column. A file with no faulty row gives responses on some rows only.
    """
    pick = itemgetter(*(header.index(c) for c in (*REQUIRED_COLUMNS, *xnames)))
    padding = [""] * len(header)
    seen: set[tuple[str, str]] = set()
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in filter(None, reader):
            bid, uid, treated, response, *xs = map(str.strip, pick(row + padding))
            if not bid or not uid:
                message = "empty block_id or unit_id"
            elif (bid, uid) in seen:
                message = f"duplicate unit {uid!r} in block {bid!r}"
            elif treated not in _INDICATORS:
                message = f"treated must be 0 or 1, got {treated!r}"
            elif response and _number_fault(response):
                message = f"response {response!r} {_number_fault(response)}"
            else:
                faults = ((name, cell, _number_fault(cell)) for name, cell in zip(xnames, xs))
                message = next((f"column {n} value {c!r} {why}" for n, c, why in faults if why), "")
            if message:
                return f"{path}:{reader.line_num}: {message}"
            seen.add((bid, uid))
    return f"{path}: responses must be given for all units or none"


def _decode_fault(path: Path, exc: UnicodeDecodeError) -> str:
    """Message naming the file line and value of the first byte the encoding rejects."""
    try:
        path.read_bytes().decode(exc.encoding)
    except UnicodeDecodeError as whole_file:
        exc = whole_file
    line = exc.object.count(b"\n", 0, exc.start) + 1
    return f"{path}:{line}: byte 0x{exc.object[exc.start]:02x} is not valid {exc.encoding}"


def ingest_csv(path) -> tuple[BlockDesign, AssignmentAndOutcomes | None]:
    """Parse an experiment CSV into a validated design plus observed data.

    Returns ``(design, data)``; ``data`` is None for design-only files
    (every response empty), whose treated indicators still determine each
    block's treated count. Schema problems raise SchemaError. Cell-level
    problems raise ParseError naming the file line of the earliest faulty
    row, as do a byte the text encoding rejects and a cell the csv module
    refuses (one over its field size limit). Design violations propagate from
    :func:`stratavar.design.validate_design`.
    """
    path = Path(path)
    try:
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            names = next(reader, None)
            if names is None:
                raise SchemaError(f"{path}: empty file")
            header = [h.strip() for h in names]
            missing = [c for c in REQUIRED_COLUMNS if c not in header]
            if missing:
                raise SchemaError(f"{path}: missing required columns {missing}")
            duplicated = [c for c in dict.fromkeys(header) if header.count(c) > 1]
            if duplicated:
                raise SchemaError(f"{path}: duplicated column names {duplicated}")
            known = set(REQUIRED_COLUMNS)
            xnames = _covariate_columns(header)
            extra = [c for c in header if c not in known and c not in xnames]
            if extra:
                raise SchemaError(f"{path}: unrecognized columns {extra}")
            rows = list(filter(None, reader))
    except csv.Error as exc:  # e.g. a cell over the csv module's field size limit
        raise ParseError(f"{path}:{reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(_decode_fault(path, exc)) from None

    if not rows:
        raise SchemaError(f"{path}: no data rows")
    width = len(header)
    if min(map(len, rows)) < width:
        rows = [row + [""] * (width - len(row)) for row in rows]
    columns = dict(zip(header, zip(*rows)))
    del rows
    bids, uids, treated = (list(map(str.strip, columns[c])) for c in REQUIRED_COLUMNS[:3])
    n_rows = len(bids)
    # float() ignores surrounding blanks, so numeric cells need stripping only
    # to tell an empty response from a faulty one
    r = _finite_floats(columns["response"])
    x = [_finite_floats(columns[c]) for c in xnames]
    n_empty = 0 if r is not None else list(map(str.strip, columns["response"])).count("")
    has_responses = n_empty == 0
    if (
        "" in bids
        or "" in uids
        or len(set(zip(bids, uids))) < n_rows
        or not set(treated) <= _INDICATORS.keys()
        or (has_responses and r is None)
        or any(v is None for v in x)
        or 0 < n_empty < n_rows
    ):
        raise ParseError(_first_fault(path, header, xnames))

    # group units by block in first-appearance order with one stable sort
    index = {bid: code for code, bid in enumerate(dict.fromkeys(bids))}
    codes = np.array(list(map(index.__getitem__, bids)))
    order = np.argsort(codes, kind="stable")
    z = np.array(list(map(_INDICATORS.__getitem__, treated)))
    sizes = np.bincount(codes)
    n_treated = np.bincount(codes[z == 1], minlength=len(sizes))
    cov = np.column_stack(x)[order] if xnames else None
    design = validate_design(BlockDesign._from_arrays(index, sizes, n_treated, cov))
    if not has_responses:
        return design, None
    return design, AssignmentAndOutcomes._from_flat(z[order], r[order], sizes)


def write_experiment_csv(
    path, design: BlockDesign, assignment: Assignment, responses=None
) -> None:
    """Serialize a design and assignment (plus optional per-block responses) to the CSV schema.

    Units are numbered 1..n_i within each block. Numbers are written as the
    shortest text that parses back to the same float, so :func:`ingest_csv`
    of the file returns the same packed arrays.
    """
    path = Path(path)
    k = design.covariate_dim
    header = list(REQUIRED_COLUMNS) + [f"x{j}" for j in range(1, k + 1)]
    sizes = design.sizes.tolist()
    columns = [
        [bid for bid, n in zip(design.ids, sizes) for _ in range(n)],
        [str(j) for n in sizes for j in range(1, n + 1)],
        map(str, assignment.indicators.tolist()),
        itertools.repeat("") if responses is None else map(fmt_raw, np.concatenate(responses)),
    ]
    if k:
        columns.extend(map(fmt_raw, col) for col in design.covariates.T)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))
