"""Property test of the command line contract on small generated experiments.

Every ``analyze`` or ``hettest`` run either exits 0 and prints strict JSON
(no NaN or Infinity) that validates against the shipped schema, or exits
with one of the documented failure codes (2 input, 3 design, 4 estimator,
5 numerical) and exactly one line on stderr, without a traceback. Every
``simulate`` run on tiny studies either exits 0 and writes no NaN or
Infinity, or exits with one of those codes, one ``error:`` line and no
output directory.
"""
from __future__ import annotations

import contextlib
import io
import json
import re
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
    "--q-spec": ("x3", "x1,x1", ",", "q1", "x²"),
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
def cli_runs(
    draw, command: str, faults=FAULTS, bad_args=BAD_ARGS
) -> tuple[str, list[str]]:
    """An experiment CSV and an argument list; at most one fault per run.

    The file has 2-6 blocks of 2-4 units and 0-2 covariates. The fault, if
    any, is a bad cell, a block without one of the arms, a bad argument, a
    header name padded with blanks, a duplicated column, a blank line, a
    row missing its last cells, a byte that is not UTF-8, a cell over the
    csv module's field size limit, or a ``--max-draws`` above ``MAX_DRAWS``.
    It is drawn from ``faults``, and a bad argument from ``bad_args``.
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

    fault = draw(st.sampled_from(faults))
    row = draw(st.integers(0, len(rows) - 1))
    if fault == "cell":
        rows[row][draw(st.integers(0, len(header) - 1))] = draw(st.sampled_from(BAD_CELLS))
    elif fault == "arm":
        arm = draw(st.sampled_from("01"))
        for r in rows:
            if r[0] == rows[row][0]:
                r[2] = arm
    elif fault == "argument":
        flag = draw(st.sampled_from([f for f in GOOD_ARGS[command] if f in bad_args]))
        argv[argv.index(flag) + 1] = draw(st.sampled_from(bad_args[flag]))
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


# four pairs that a run with an admissible --max-draws enumerates exactly
FOUR_PAIRS = "block_id,unit_id,treated,response,x1\n" + "".join(
    f"b{b},{j},{int(j == 0)},{(b * 7 + j * 3) % 5}.5,{b + j / 4}\n"
    for b in range(4)
    for j in range(2)
)


@PROPERTY_SETTINGS
@given(run=cli_runs("analyze"))
@example(run=(FOUR_PAIRS, ["analyze", "--estimators", ","]))
def test_analyze_exits_cleanly_or_prints_schema_valid_json(run):
    _check_contract(run, "variance_report.schema.json")


@PROPERTY_SETTINGS
@given(run=cli_runs("hettest"))
@example(run=(FOUR_PAIRS, ["hettest", "--q-spec", "x1", "--max-draws", str(10**26)]))
def test_hettest_exits_cleanly_or_prints_schema_valid_json(run):
    _check_contract(run, "het_test.schema.json")


# Every fault kind, and every bad value of every flag a command takes, pinned
# in its own case, so that each runs whatever the property tests above draw.
SCHEMAS = {"analyze": "variance_report.schema.json", "hettest": "het_test.schema.json"}
PINNED = [
    pytest.param(command, (fault,), BAD_ARGS, id=f"{command} {fault}")
    for command in SCHEMAS
    for fault in dict.fromkeys(FAULTS)
    if fault not in (None, "argument")
    and (fault != "draws over the ceiling" or "--max-draws" in GOOD_ARGS[command])
] + [
    pytest.param(command, ("argument",), {flag: (value,)}, id=f"{command} {flag}={value}")
    for command in SCHEMAS
    for flag, values in BAD_ARGS.items()
    if flag in GOOD_ARGS[command]
    for value in values
]


@pytest.mark.parametrize("command, faults, bad_args", PINNED)
@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_every_fault_exits_cleanly(command, faults, bad_args, data):
    _check_contract(data.draw(cli_runs(command, faults, bad_args)), SCHEMAS[command])


# One study run per example: tiny replicate, draw and block counts, at most one fault.
SIM_FAULTS = {
    "--seed": ("-1", "-5"),
    "--reps": ("1", "0"),
    "--blocks": ("0", "3", "12", "-2"),
    "--a": ("1e160", "1e150", "nan"),
    "--b": ("inf", "-1", "1.4e154"),
    "--a-grid": ("1e160", "x", ""),
    "--alpha": ("2", "-1", "nan"),
    "--max-draws": ("0", str(MAX_DRAWS + 1)),
}
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


@st.composite
def sim_runs(draw) -> list[str]:
    """``simulate`` argv for table1, power or pate-demo, with at most one bad option value."""
    study = draw(st.sampled_from(("table1", "power", "pate-demo")))
    args = {"--reps": str(draw(st.integers(2, 3))), "--seed": str(draw(st.integers(0, 2**31)))}
    if study == "table1":
        args["--blocks"] = str(draw(st.integers(13, 40)))
        args["--a"] = repr(draw(st.floats(0.0, 4.0)))
        args["--b"] = repr(draw(st.floats(0.0, 4.0)))
    elif study == "power":
        args["--blocks"] = str(draw(st.integers(13, 24)))
        args["--a-grid"] = repr(draw(st.floats(0.5, 2.0)))
        args["--max-draws"] = str(draw(st.integers(1, 30)))
        args["--alpha"] = repr(draw(st.floats(0.01, 0.5)))
    if draw(st.integers(0, 2)) == 0:  # a fault in one run of three
        flag = draw(st.sampled_from([f for f in SIM_FAULTS if f in args]))
        args[flag] = draw(st.sampled_from(SIM_FAULTS[flag]))
    return ["simulate", study] + [item for pair in args.items() for item in pair]


@PROPERTY_SETTINGS
@given(argv=sim_runs())
@example(argv=["simulate", "pate-demo", "--reps", "2", "--seed", "-1"])
@example(argv=["simulate", "power", "--reps", "2", "--max-draws", "9", "--alpha", "2"])
@example(argv=["simulate", "table1", "--reps", "2", "--blocks", "0"])
@example(argv=["simulate", "table1", "--reps", "2", "--blocks", "3"])
@example(argv=["simulate", "table1", "--reps", "2", "--blocks", "20", "--a", "1e160"])
@example(argv=["simulate", "table1", "--reps", "2", "--blocks", "20", "--b", "1.4e154"])
def test_simulate_exits_cleanly_or_writes_finite_output(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "out"
        code, out, err, caught = _run([*argv, "--out-dir", str(out_dir)])
        written = {p.name: p.read_text() for p in out_dir.iterdir()} if out_dir.exists() else {}
    assert "Traceback" not in err
    if code == 0:
        assert written, argv
        for name, text in written.items():
            assert not NON_FINITE.search(text), (argv, name)
        assert not NON_FINITE.search(out), argv
    else:
        assert code in (2, 3, 4, 5), (code, err)
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        assert not written, (argv, sorted(written))
        assert not caught, [str(w.message) for w in caught]


# Every numeric flag of the studies and of hettest's replay, with a small
# well-formed value. A run gives one of them a value that argparse cannot
# read, as its own argv token: an exponent-form negative such as -1e+16 looks
# like a flag to argparse, which then finds the flag before it without a value.
NUMERIC_FLAGS = {
    "simulate table1": {
        "--reps": "2", "--seed": "0", "--blocks": "13", "--threads": "1",
        "--a": "1.0", "--b": "1.0",
    },
    "simulate power": {
        "--reps": "2", "--seed": "0", "--blocks": "13", "--threads": "1", "--b": "1.0",
        "--max-draws": "9", "--alpha": "0.05",
    },
    "simulate pate-demo": {"--reps": "2", "--seed": "0", "--threads": "1"},
    "hettest": {"--max-draws": "9", "--seed": "0"},
}
FLOAT_FLAGS = ("--a", "--b", "--alpha")
UNPARSEABLE = ("abc", "", "-1e+16", "-2E3")


@st.composite
def unparseable_runs(draw) -> tuple[list[str], str]:
    """argv with one numeric flag given an unreadable value, and that flag."""
    command = draw(st.sampled_from(sorted(NUMERIC_FLAGS)))
    args = dict(NUMERIC_FLAGS[command])
    flag = draw(st.sampled_from(sorted(args)))
    args[flag] = draw(st.sampled_from(UNPARSEABLE + (() if flag in FLOAT_FLAGS else ("1.5",))))
    pairs = draw(st.permutations(list(args.items())))
    return command.split() + [item for pair in pairs for item in pair], flag


@PROPERTY_SETTINGS
@given(run=unparseable_runs())
@example(run=(["simulate", "table1", "--reps", "abc"], "--reps"))
@example(run=(["simulate", "table1", "--b", "-1e+16"], "--b"))
@example(run=(["hettest", "--seed", "-2E3"], "--seed"))
def test_unreadable_numeric_values_are_one_line_usage_errors(run):
    argv, flag = run
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "experiment.csv"
        path.write_text(FOUR_PAIRS)
        if argv[0] == "hettest":
            where = ["--csv", str(path), "--q-spec", "x1"]
        else:
            where = ["--out-dir", str(Path(tmp) / "out")]
        code, out, err, caught = _run([*argv, *where])
    assert code == 2, (argv, err)
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and flag in lines[0], err
    assert not caught, [str(w.message) for w in caught]
