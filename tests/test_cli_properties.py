"""Property test of the command line contract on small generated experiments.

Every ``analyze`` or ``hettest`` run either exits 0 and prints strict JSON
(no NaN or Infinity) that validates against the shipped schema, or exits
with one of the documented failure codes (2 input, 3 design, 4 estimator,
5 numerical) and exactly one line on stderr, without a traceback.
"""
from __future__ import annotations

import contextlib
import io
import json
import tempfile
import warnings
from importlib import resources
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
jsonschema = pytest.importorskip("jsonschema")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from stratavar.cli import main  # noqa: E402
from stratavar.hettest import MAX_DRAWS  # noqa: E402

BAD_CELLS = ("nan", "inf", "-Infinity", "1e999", "abc", "")
# Argument values that a well-formed run may use, per subcommand.
GOOD_ARGS = {
    "analyze": {
        "--q-spec": ("x1", "q1", "x1,x2", "x2"),
        "--poly": ("1", "2", "3"),
        "--estimators": ("auto", "s1,s2,s3", "s1", "paired", "coarse"),
        "--alpha": ("0.05", "0.5", "1e-3"),
    },
    "hettest": {
        "--q-spec": ("x1", "x2", "x1,x2"),
        "--poly": ("1", "2"),
        "--max-draws": ("10000", "60", "7", "1"),
        "--seed": ("0", "12345", "2147483647"),
        "--threads": ("1",),
    },
}
# Values that must be refused with a clean error.
BAD_ARGS = {
    "--q-spec": ("x3", "x1,x1", ",", "q1"),
    "--poly": ("0", "-1"),
    "--estimators": ("bogus",),
    "--alpha": ("0", "1.5", "nan", "1e-17"),
    "--max-draws": ("0", "-1"),
}
FAULTS = (
    None, None, None, "cell", "arm", "argument",
    "padded name", "duplicate column", "blank line", "short row",
    "raw byte", "oversize cell", "draws over the ceiling",
)
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def cli_runs(draw, command: str) -> tuple[str, list[str]]:
    """An experiment CSV and an argument list; at most one fault per run.

    The file has 2-6 blocks of 2-4 units and 0-2 covariates. The fault, if
    any, is a bad cell, a block without one of the arms, a bad argument, a
    header name padded with blanks, a duplicated column, a blank line, a
    row missing its last cells, a byte that is not UTF-8, a cell over the
    csv module's field size limit, or a ``--max-draws`` above ``MAX_DRAWS``.
    """
    n_cov = draw(st.sampled_from((2, 1, 0)))
    value = st.one_of(
        st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False),
        st.integers(-3, 3).map(float),
    )
    layout = draw(st.sampled_from(("pairs", "equal", "mixed")))
    n_blocks = draw(st.integers(2, 6))
    equal = draw(st.integers(2, 4))
    header = ["block_id", "unit_id", "treated", "response"] + [f"x{j + 1}" for j in range(n_cov)]
    rows = []
    for b in range(n_blocks):
        n = 2 if layout == "pairs" else equal if layout == "equal" else draw(st.integers(2, 4))
        k = draw(st.integers(1, n - 1))
        center = [draw(value) for _ in range(n_cov)]
        block_constant = draw(st.booleans())
        for j in range(n):
            x = center if block_constant else [draw(value) for _ in range(n_cov)]
            cells = [f"b{b}", str(j), str(int(j < k)), repr(draw(value))]
            rows.append(cells + [repr(v) for v in x])

    argv = [command]
    for flag, choices in GOOD_ARGS[command].items():
        if flag == "--q-spec":
            # name only columns the file has; without covariates, q1
            choices = tuple(c for c in choices if n_cov == 2 or "x2" not in c)
            choices = tuple(c for c in choices if n_cov or "x1" not in c) or ("q1",)
        argv += [flag, draw(st.sampled_from(choices))]

    fault = draw(st.sampled_from(FAULTS))
    row = draw(st.integers(0, len(rows) - 1))
    if fault == "cell":
        rows[row][draw(st.integers(0, len(header) - 1))] = draw(st.sampled_from(BAD_CELLS))
    elif fault == "arm":
        arm = draw(st.sampled_from("01"))
        for r in rows:
            if r[0] == rows[row][0]:
                r[2] = arm
    elif fault == "argument":
        flag = draw(st.sampled_from([f for f in GOOD_ARGS[command] if f in BAD_ARGS]))
        argv[argv.index(flag) + 1] = draw(st.sampled_from(BAD_ARGS[flag]))
    elif fault == "padded name":
        j = draw(st.integers(0, len(header) - 1))
        pad = draw(st.sampled_from((" ", "  ", "\t")))
        header[j] = pad + header[j] + draw(st.sampled_from(("", " ")))
    elif fault == "duplicate column":
        j = draw(st.integers(0, len(header) - 1))
        header.append(header[j])
        for r in rows:
            r.append(r[j])
    elif fault == "blank line":
        rows.insert(row, [])
    elif fault == "short row":
        del rows[row][draw(st.integers(1, len(header) - 1)) :]
    elif fault == "raw byte":  # an undecodable byte, carried as a surrogate escape
        j = draw(st.integers(0, len(header) - 1))
        rows[row][j] += draw(st.sampled_from(("\udcff", "\udc80", "\udcc3")))
    elif fault == "oversize cell":  # over the csv module's 131,072-character field limit
        rows[row][draw(st.integers(0, len(header) - 1))] = "1" * 140_000
    elif fault == "draws over the ceiling" and "--max-draws" in argv:
        over = draw(st.sampled_from((MAX_DRAWS + 1, 10**26)))
        argv[argv.index("--max-draws") + 1] = str(over)
    return "\n".join(",".join(r) for r in [header] + rows) + "\n", argv


def _run(argv: list[str]) -> tuple[int, str, str, list]:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue(), caught


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def _check_contract(run: tuple[str, list[str]], schema_name: str) -> None:
    text, argv = run
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "experiment.csv"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        code, out, err, caught = _run([argv[0], "--csv", str(path), *argv[1:]])
    assert "Traceback" not in err
    if "--max-draws" in argv:  # a draw count over the ceiling is never run
        assert code != 0 or int(argv[argv.index("--max-draws") + 1]) <= MAX_DRAWS, argv
    if code == 0:
        payload = json.loads(out, parse_constant=_reject_constant)
        schema_text = resources.files("stratavar").joinpath(f"schemas/{schema_name}").read_text()
        jsonschema.validate(payload, json.loads(schema_text))
    else:
        assert code in (2, 3, 4, 5), (code, err)
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        assert not caught, [str(w.message) for w in caught]


@PROPERTY_SETTINGS
@given(run=cli_runs("analyze"))
def test_analyze_exits_cleanly_or_prints_schema_valid_json(run):
    _check_contract(run, "variance_report.schema.json")


# four pairs that a run with an admissible --max-draws enumerates exactly
FOUR_PAIRS = "block_id,unit_id,treated,response,x1\n" + "".join(
    f"b{b},{j},{int(j == 0)},{(b * 7 + j * 3) % 5}.5,{b + j / 4}\n"
    for b in range(4)
    for j in range(2)
)


@PROPERTY_SETTINGS
@given(run=cli_runs("hettest"))
@example(run=(FOUR_PAIRS, ["hettest", "--q-spec", "x1", "--max-draws", str(10**26)]))
def test_hettest_exits_cleanly_or_prints_schema_valid_json(run):
    _check_contract(run, "het_test.schema.json")
