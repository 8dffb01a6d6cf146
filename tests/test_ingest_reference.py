"""Differential test of the columnar CSV ingest against a row-by-row reference.

``reference_ingest`` reads the file row by row through ``csv.DictReader``,
one dict per row, checking each row as it comes: the plain reading of the
format. It looks columns up by their stripped header names, refuses
duplicated column names, and names the physical file line of a faulty row.
On every generated file both parsers must return the same design and data,
bit for bit, or raise the same exception class with the same message.
"""
from __future__ import annotations

import csv
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from stratavar import (  # noqa: E402
    Assignment,
    AssignmentAndOutcomes,
    Block,
    BlockDesign,
    ParseError,
    SchemaError,
    ingest_csv,
    validate_design,
)
from stratavar.errors import StratavarError  # noqa: E402
from stratavar.experiment_io import REQUIRED_COLUMNS, _covariate_columns  # noqa: E402


def reference_ingest(path):
    """Row-by-row parse of an experiment CSV, one dict per row."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise SchemaError(f"{path}: empty file")
        header = [h.strip() for h in reader.fieldnames]
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
        reader.fieldnames = header

        block_order: list[str] = []
        rows_by_block: dict[str, list[dict]] = {}
        seen_units: set[tuple[str, str]] = set()
        for row in reader:
            lineno = reader.reader.line_num
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


def _array_bits(a) -> tuple | None:
    return None if a is None else (a.shape, a.dtype.str, a.tobytes())


def _outcome(parse, path) -> tuple:
    """Everything a parse returns, as comparable values, or its error."""
    try:
        design, data = parse(path)
    except StratavarError as exc:
        return ("error", type(exc), str(exc))
    blocks = [
        (b.block_id, b.n, b.n_treated, _array_bits(b.covariates)) for b in design.blocks
    ]
    if data is None:
        return ("ok", blocks, None)
    return ("ok", blocks, data.assignment.z, [_array_bits(r) for r in data.responses])


FINITE = st.one_of(
    st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-3, 3).map(str),
)
# Replacement cells per column kind: faults, and near misses that must parse.
BAD_CELLS = {
    "block_id": (" b0 ", "", "b0\n", "  ", '"b1"'),
    "unit_id": (" 1 ", "", "2\r\n", " "),
    "treated": (" 1 ", "2", "", "yes", "01", "-0", "1.0"),
    "number": (" 2.5 ", "nan", "inf", "-Infinity", "1e999", "abc", "", "1_0", "1,5", "0x1"),
}
HEADER_FAULTS = ("pad", "duplicate", "drop", "extra")
ROW_FAULTS = (
    "cell", "cell", "cell", "cell", "cell", "duplicate unit", "lone unit", "partial responses",
    "design only", "quote", "short", "long", "blank",
)


def _render(cell: str, quoted: bool) -> str:
    if quoted or any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


@st.composite
def experiment_files(draw) -> str:
    """A small experiment CSV: 2-4 blocks of 2-3 units, rows in any order,
    then up to three faults or quirks, in the header or in the rows."""
    n_cov = draw(st.integers(0, 2))
    header = list(REQUIRED_COLUMNS) + [f"x{j + 1}" for j in range(n_cov)]
    if draw(st.integers(0, 4)) == 0:
        header = draw(st.permutations(header))
    rows = []
    for b in range(draw(st.integers(2, 4))):
        n = draw(st.integers(2, 3))
        k = draw(st.integers(1, n - 1))
        for j in range(n):
            cells = {"block_id": f"b{b}", "unit_id": str(j + 1), "treated": str(int(j < k))}
            rows.append([cells.get(h) or draw(FINITE) for h in header])
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    quoted = [[False] * len(r) for r in rows]
    blank_before = [0] * (len(rows) + 1)

    def put(row: list[str], column: str, cell: str) -> None:
        names = [h.strip() for h in header]
        if column in names and names.index(column) < len(row):
            row[names.index(column)] = cell

    # half the faults land on one row, so that rows with several faults occur
    hot = draw(st.integers(0, len(rows) - 1))
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(ROW_FAULTS * 3 + HEADER_FAULTS))
        i = hot if draw(st.booleans()) else draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(header) - 1))
        if fault == "pad":
            header[j] = draw(st.sampled_from((" ", "  ", "\t"))) + header[j].strip() + " "
        elif fault == "duplicate":
            header.append(header[j])
            for r, q in zip(rows, quoted):
                r.append(r[j] if j < len(r) else "")
                q.append(False)
        elif fault == "drop":
            del header[j]
            for r, q in zip(rows, quoted):
                del r[j : j + 1], q[j : j + 1]
        elif fault == "extra":
            header.append("weight")
        elif fault == "cell":
            # one to three bad cells in the row, so that the check order shows
            for j in draw(st.sets(st.integers(0, len(header) - 1), min_size=1, max_size=3)):
                bad = BAD_CELLS.get(header[j].strip(), BAD_CELLS["number"])
                put(rows[i], header[j].strip(), draw(st.sampled_from(bad)))
        elif fault == "duplicate unit" and i > 0:
            other = rows[draw(st.integers(0, i - 1))]
            for column in ("block_id", "unit_id"):
                names = [h.strip() for h in header]
                if column in names and names.index(column) < len(other):
                    put(rows[i], column, other[names.index(column)])
        elif fault == "lone unit":
            put(rows[i], "block_id", "lone")
        elif fault in ("partial responses", "design only"):
            for r in rows if fault == "design only" else [rows[i]]:
                put(r, "response", "")
        elif fault == "quote":
            quoted[i] = [True] * len(quoted[i])
        elif fault == "short":
            del rows[i][draw(st.integers(1, max(1, len(rows[i]) - 1))) :]
        elif fault == "long":
            rows[i].append("9")
        elif fault == "blank":
            blank_before[draw(st.integers(0, len(rows)))] += draw(st.integers(1, 2))

    lines = [",".join(_render(h, False) for h in header)]
    for r, q, blanks in zip(rows, quoted, blank_before):
        lines += [""] * blanks
        lines.append(",".join(_render(c, qc) for c, qc in zip(r, q)))
    newline = draw(st.sampled_from(("\n", "\r\n")))
    return newline.join(lines) + newline


HEADER = "block_id,unit_id,treated,response,x1,x2\n"


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(text=experiment_files())
# rows with several faults: the first failing check in report order names them
@example(text=HEADER + "a,1,1,1,0,0\na,1,2,x,y,z\nb,1,1,1,0,0\nb,2,0,1,0,0\n")
@example(text=HEADER + "a,1,1,1,0,0\na,2,yes,nan,0,0\nb,1,1,1,0,0\nb,2,0,1,0,0\n")
@example(text=HEADER + "a,1,1,1,0,0\na,2,0,,0,0\nb,,0,inf,x,0\nb,2,0,1,0,0\n")
@example(text=HEADER + "a,1,1,1,0,0\na,2,0,1,0,0\nb,1,1,1,inf,?\nb,2,0,1,0,inf\n")
def test_columnar_ingest_matches_the_row_by_row_reference(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "experiment.csv"
        path.write_text(text, newline="")
        assert _outcome(ingest_csv, path) == _outcome(reference_ingest, path)
