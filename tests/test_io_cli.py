"""CSV ingestion, serialization, and the command line interface."""
from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from stratavar import (
    Assignment,
    BlockDesign,
    InfeasibleBlock,
    InputError,
    ParseError,
    SchemaError,
    ingest_csv,
    pairs_quartets_study,
    pate_demo,
    run_power_curve,
    run_table1,
    sample_assignment,
    write_experiment_csv,
)
from stratavar import _util, cli
from stratavar import simulate as simulate_module
from stratavar._util import effective_workers, map_chunks
from stratavar.cli import main


def _write_pairs_csv(path, taus, x=None):
    """Pairs (t, 0), first unit treated, optional block-constant x1 column."""
    header = "block_id,unit_id,treated,response" + (",x1" if x is not None else "")
    lines = [header]
    for i, t in enumerate(taus):
        suffix = f",{x[i]}" if x is not None else ""
        lines.append(f"b{i},u1,1,{t}{suffix}")
        lines.append(f"b{i},u2,0,0.0{suffix}")
    path.write_text("\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------------------
# ingestion and round trips
# ---------------------------------------------------------------------------


def test_round_trip_preserves_design_data_and_covariates(tmp_path):
    rng = np.random.default_rng(5)
    covariates = [rng.normal(size=(2, 2)), rng.normal(size=(3, 2))]
    design = BlockDesign.from_sizes([2, 3], [1, 1], covariates=covariates, ids=["a", "b"])
    assignment = Assignment(z=((0, 1), (1, 0, 0)))
    responses = (np.array([0.25, -1.5]), np.array([3.0, 1.0 / 3.0, 2.0]))
    path = tmp_path / "exp.csv"
    write_experiment_csv(path, design, assignment, responses=responses)

    loaded, data = ingest_csv(path)
    assert loaded.sizes.tolist() == [2, 3]
    assert loaded.treated_counts.tolist() == [1, 1]
    assert [blk.block_id for blk in loaded.blocks] == ["a", "b"]
    assert data.assignment.z == assignment.z
    for got, want in zip(data.responses, responses):
        np.testing.assert_array_equal(got, want)
    for got_blk, want in zip(loaded.blocks, covariates):
        np.testing.assert_array_equal(np.asarray(got_blk.covariates), want)


def test_design_only_file_returns_no_data(tmp_path):
    design = BlockDesign.from_sizes([2, 2], [1, 1])
    assignment = Assignment(z=((1, 0), (0, 1)))
    path = tmp_path / "design.csv"
    write_experiment_csv(path, design, assignment)
    loaded, data = ingest_csv(path)
    assert data is None
    assert loaded.sizes.tolist() == [2, 2]
    assert loaded.treated_counts.tolist() == [1, 1]


def test_missing_required_column_is_a_schema_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("block_id,unit_id,treated\n1,1,1\n1,2,0\n")
    with pytest.raises(SchemaError, match="missing required columns"):
        ingest_csv(path)


def test_unknown_column_is_a_schema_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("block_id,unit_id,treated,response,weight\n1,1,1,2.0,9\n1,2,0,1.0,9\n")
    with pytest.raises(SchemaError, match="unrecognized columns"):
        ingest_csv(path)


def test_covariate_columns_must_be_contiguous(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("block_id,unit_id,treated,response,x1,x3\n1,1,1,2.0,0.1,0.2\n1,2,0,1.0,0.1,0.2\n")
    with pytest.raises(SchemaError, match="x1..xK"):
        ingest_csv(path)


def test_duplicate_unit_reports_file_and_line(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("block_id,unit_id,treated,response\n1,1,1,2.0\n1,1,0,1.0\n")
    with pytest.raises(ParseError, match=r"dup\.csv:3: duplicate unit"):
        ingest_csv(path)


def test_bad_treated_and_bad_response_cells(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("block_id,unit_id,treated,response\n1,1,2,2.0\n1,2,0,1.0\n")
    with pytest.raises(ParseError, match="treated must be 0 or 1"):
        ingest_csv(path)
    path.write_text("block_id,unit_id,treated,response\n1,1,1,high\n1,2,0,1.0\n")
    with pytest.raises(ParseError, match="not a number"):
        ingest_csv(path)
    path.write_text("block_id,unit_id,treated,response,x1\n1,1,1,2.0,\n1,2,0,1.0,0.3\n")
    with pytest.raises(ParseError, match="column x1"):
        ingest_csv(path)


def test_partially_empty_responses_are_rejected(tmp_path):
    path = tmp_path / "mixed.csv"
    path.write_text("block_id,unit_id,treated,response\n1,1,1,2.0\n1,2,0,\n")
    with pytest.raises(ParseError, match="all units or none"):
        ingest_csv(path)


def test_empty_and_header_only_files(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(SchemaError, match="empty file"):
        ingest_csv(path)
    path.write_text("block_id,unit_id,treated,response\n")
    with pytest.raises(SchemaError, match="no data rows"):
        ingest_csv(path)


def test_design_violations_propagate(tmp_path):
    path = tmp_path / "alltreated.csv"
    path.write_text("block_id,unit_id,treated,response\n1,1,1,2.0\n1,2,1,1.0\n2,1,1,0.5\n2,2,0,0.1\n")
    with pytest.raises(InfeasibleBlock):
        ingest_csv(path)


# ---------------------------------------------------------------------------
# command line: analyze and hettest
# ---------------------------------------------------------------------------


def _load_schema(name: str):
    from importlib import resources

    return json.loads(resources.files("stratavar").joinpath(f"schemas/{name}").read_text())


def test_cli_analyze_writes_valid_report_to_stdout(tmp_path, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    path = _write_pairs_csv(tmp_path / "pairs.csv", [1.0, 2.0, 3.0, 5.0])
    assert main(["analyze", "--csv", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, _load_schema("variance_report.schema.json"))
    assert payload["design_class"] == "fine"
    assert payload["n_blocks"] == 4
    # On equal-size pairs with the default basis the projection estimator
    # coincides with the classical paired estimator.
    assert payload["estimates"]["s1"] == pytest.approx(payload["estimates"]["paired"], rel=1e-12)
    assert payload["delta_hat"] == pytest.approx(2.75)


def test_cli_analyze_out_file_is_deterministic(tmp_path, capsys):
    path = _write_pairs_csv(tmp_path / "pairs.csv", [0.5, 1.5, 2.5, 3.0], x=[1, 2, 3, 4])
    out1 = tmp_path / "report1.json"
    out2 = tmp_path / "report2.json"
    assert main(["analyze", "--csv", str(path), "--q-spec", "x1", "--out", str(out1)]) == 0
    text = capsys.readouterr().out
    assert f"wrote {out1}" in text
    assert "estimate" in text
    assert main(["analyze", "--csv", str(path), "--q-spec", "x1", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["q"]["kind"] == "q2"
    assert payload["q"]["added_covariate_rank"] == 1


def test_cli_analyze_covariate_expansion_and_estimator_subset(tmp_path, capsys):
    path = _write_pairs_csv(
        tmp_path / "pairs.csv", [1.0, 2.0, 4.0, 8.0, 16.0, 32.0], x=[1, 2, 3, 4, 5, 6]
    )
    code = main(
        ["analyze", "--csv", str(path), "--q-spec", "x1", "--poly", "2", "--estimators", "s1,s2"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(payload["estimates"]) == ["s1", "s2"]
    assert payload["q"]["added_covariate_rank"] == 2


def test_cli_exit_codes(tmp_path, capsys):
    pairs = _write_pairs_csv(tmp_path / "pairs.csv", [1.0, 2.0, 3.0], x=[1, 2, 3])
    assert main(["analyze", "--csv", str(tmp_path / "absent.csv")]) == 2

    bad_design = tmp_path / "alltreated.csv"
    bad_design.write_text(
        "block_id,unit_id,treated,response\n1,1,1,2.0\n1,2,1,1.0\n2,1,1,0.5\n2,2,0,0.1\n"
    )
    assert main(["analyze", "--csv", str(bad_design)]) == 3

    assert main(["analyze", "--csv", str(pairs), "--estimators", "coarse"]) == 4

    assert main(["analyze", "--csv", str(pairs), "--q-spec", "x9"]) == 2
    assert main(["hettest", "--csv", str(pairs), "--q-spec", "q1"]) == 2

    design_only = tmp_path / "design.csv"
    design_only.write_text(
        "block_id,unit_id,treated,response\n1,1,1,\n1,2,0,\n2,1,1,\n2,2,0,\n"
    )
    assert main(["analyze", "--csv", str(design_only)]) == 2

    leverage_one = tmp_path / "deviant.csv"
    rows = ["block_id,unit_id,treated,response"]
    for bid, n in (("a", 4), ("b", 4), ("c", 5)):
        for j in range(n):
            rows.append(f"{bid},{j},{int(j < 2)},{j}.0")
    leverage_one.write_text("\n".join(rows) + "\n")
    assert main(["analyze", "--csv", str(leverage_one)]) == 5

    capsys.readouterr()


def test_cli_rejects_unknown_arguments(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2
    capsys.readouterr()


def test_cli_hettest_exact_result(tmp_path, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    rng = np.random.default_rng(8)
    path = _write_pairs_csv(
        tmp_path / "pairs.csv", list(rng.normal(size=8)), x=list(range(1, 9))
    )
    assert main(["hettest", "--csv", str(path), "--q-spec", "x1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, _load_schema("het_test.schema.json"))
    assert payload["exact"] is True
    assert payload["draws"] == 256
    assert payload["seed"] is None
    assert 0.0 < payload["p_value"] <= 1.0


def test_cli_hettest_monte_carlo_and_thread_env(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(9)
    path = _write_pairs_csv(
        tmp_path / "pairs.csv", list(rng.normal(size=9)), x=list(range(9))
    )
    args = ["hettest", "--csv", str(path), "--q-spec", "x1", "--max-draws", "200", "--seed", "3"]

    monkeypatch.delenv("STRATAVAR_THREADS", raising=False)
    assert main(args) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["exact"] is False
    assert first["draws"] == 200
    assert first["seed"] == 3

    monkeypatch.setenv("STRATAVAR_THREADS", "2")
    assert main(args) == 0
    threaded = json.loads(capsys.readouterr().out)
    assert threaded == first

    monkeypatch.setenv("STRATAVAR_THREADS", "zero")
    assert main(args) == 2
    monkeypatch.setenv("STRATAVAR_THREADS", "0")
    assert main(args) == 2
    capsys.readouterr()

    monkeypatch.delenv("STRATAVAR_THREADS", raising=False)
    assert main(args + ["--threads", "0"]) == 2
    capsys.readouterr()


def test_worker_count_is_clamped_to_chunks_and_cpus():
    # arithmetic only: no pool is started here
    assert effective_workers(64, 3, 2) == 2
    assert effective_workers(64, 1, 8) == 1
    assert effective_workers(10**6, 200, 16) == 16
    assert effective_workers(4, 200, 16) == 4
    assert effective_workers(4, 200, None) == 1
    assert effective_workers(None, 10, 8) == 1
    assert effective_workers(1, 0, 8) == 1


def test_serial_map_reads_no_cpu_count(monkeypatch):
    def fail():
        raise AssertionError("cpu_count read for a map that starts no pool")

    monkeypatch.setattr(_util.os, "cpu_count", fail)
    for threads, args in ((None, [1, 2]), (1, [1, 2]), (0, [1, 2]), (4, [3]), (4, [])):
        assert map_chunks(abs, args, threads) == args


# ---------------------------------------------------------------------------
# command line: simulations
# ---------------------------------------------------------------------------


def _read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_cli_simulate_table1_files(tmp_path, capsys):
    outdir = tmp_path / "t1"
    args = [
        "simulate", "table1", "--reps", "30", "--blocks", "20", "--seed", "1",
        "--out-dir", str(outdir), "--raw",
    ]
    assert main(args) == 0
    capsys.readouterr()

    cells = _read_csv_rows(outdir / "table1_cells.csv")
    assert len(cells) == 9
    assert {(c["estimator"], c["qspec"]) for c in cells} == {
        (est, q) for est in ("s1", "s2", "s3") for q in ("none", "correct", "incorrect")
    }
    assert all(c["reps"] == "30" for c in cells)
    assert all(float(c["mean"]) >= 0.0 for c in cells)

    summary = json.loads((outdir / "table1_summary.json").read_text())
    assert summary["reps"] == 30
    assert summary["seed"] == 1
    assert summary["config"]["n_blocks"] == 20
    assert set(summary["targets"]) == {"sate_variance", "cate_variance", "pate_variance"}

    raw = _read_csv_rows(outdir / "table1_raw.csv")
    assert len(raw) == 30
    means = {
        cell: float(np.mean([float(r[cell]) for r in raw]))
        for cell in ("s1_none", "s2_correct", "s3_incorrect")
    }
    by_key = {(c["estimator"], c["qspec"]): float(c["mean"]) for c in cells}
    assert means["s1_none"] == pytest.approx(by_key[("s1", "none")], rel=1e-12)
    assert means["s2_correct"] == pytest.approx(by_key[("s2", "correct")], rel=1e-12)
    assert means["s3_incorrect"] == pytest.approx(by_key[("s3", "incorrect")], rel=1e-12)

    other = tmp_path / "t1b"
    assert main(args[:-3] + ["--out-dir", str(other), "--raw"]) == 0
    capsys.readouterr()
    assert (other / "table1_cells.csv").read_bytes() == (outdir / "table1_cells.csv").read_bytes()


def test_cli_simulate_power_files(tmp_path, capsys):
    outdir = tmp_path / "power"
    args = [
        "simulate", "power", "--reps", "10", "--a-grid", "1.0,1.4",
        "--max-draws", "49", "--seed", "2", "--out-dir", str(outdir), "--raw",
    ]
    assert main(args) == 0
    capsys.readouterr()
    rows = _read_csv_rows(outdir / "power_curve.csv")
    assert [(r["a"], r["qspec"]) for r in rows] == [
        ("1.0", "correct"), ("1.0", "incorrect"), ("1.4", "correct"), ("1.4", "incorrect"),
    ]
    for r in rows:
        assert 0.0 <= float(r["rate"]) <= 1.0
        assert r["reps"] == "10"
        assert int(r["rejections"]) == round(float(r["rate"]) * 10)
    raw = _read_csv_rows(outdir / "power_raw.csv")
    assert len(raw) == 40
    assert all(0.0 < float(r["p_value"]) <= 1.0 for r in raw)

    assert main(["simulate", "power", "--a-grid", "nope", "--out-dir", str(outdir)]) == 2
    assert main(["simulate", "power", "--a-grid", ",", "--out-dir", str(outdir)]) == 2
    capsys.readouterr()


def test_cli_simulate_power_rejects_bad_draws_and_scales(tmp_path, capsys):
    base = ["simulate", "power", "--reps", "3", "--out-dir", str(tmp_path / "power")]
    assert main(base + ["--max-draws", "0"]) == 2
    assert "max_draws must be at least 1" in capsys.readouterr().err
    with np.errstate(all="ignore"):
        for scale in ("nan", "inf", "1e308"):
            assert main(base + ["--a-grid", scale]) == 2
            assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "power").exists()


def test_cli_simulate_pairs_quartets_matches_library(tmp_path, capsys):
    outdir = tmp_path / "pq"
    assert main(["simulate", "pairs-quartets", "--out-dir", str(outdir)]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    rows = _read_csv_rows(outdir / "pairs_quartets.csv")
    study = pairs_quartets_study()
    assert len(rows) == len(study)
    for got, want in zip(rows, study):
        assert got["design"] == want["design"]
        assert got["estimator"] == want["estimator"]
        assert float(got["expected_value"]) == pytest.approx(want["expected_value"], rel=1e-15)
        assert float(got["bias_term"]) == pytest.approx(want["bias_term"], rel=1e-15)


def test_cli_simulate_pate_demo_file(tmp_path, capsys):
    outdir = tmp_path / "pd"
    assert main(["simulate", "pate-demo", "--reps", "50", "--out-dir", str(outdir)]) == 0
    out = capsys.readouterr().out
    assert "across-worlds variance" in out
    payload = json.loads((outdir / "pate_demo.json").read_text())
    assert payload["reps"] == 50
    assert set(payload["cells"]) == {"none", "correct", "incorrect"}
    assert set(payload["anticonservative_for_pate"]) == {"none", "correct", "incorrect"}
    assert set(payload["conservative_for_sate"]) == {"none", "correct", "incorrect"}


# ---------------------------------------------------------------------------
# command line: bad values end with exit code 2 and one stderr line
# ---------------------------------------------------------------------------


def _one_error_line(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


@pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
def test_cli_non_finite_response_is_a_parse_error(tmp_path, capsys, bad):
    path = tmp_path / "nonfinite.csv"
    path.write_text(
        "block_id,unit_id,treated,response\n1,1,1,2.0\n1,2,0,1.0\n2,1,1,"
        f"{bad}\n2,2,0,0.1\n3,1,1,1.5\n3,2,0,0.2\n"
    )
    with pytest.raises(ParseError, match=":4:"):
        ingest_csv(path)
    assert main(["analyze", "--csv", str(path)]) == 2
    assert ":4:" in _one_error_line(capsys)


@pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
def test_cli_non_finite_covariate_is_a_parse_error(tmp_path, capsys, bad):
    path = tmp_path / "nonfinite_x.csv"
    path.write_text(
        "block_id,unit_id,treated,response,x1\na,1,1,2.0,0.5\na,2,0,1.0,0.5\nb,1,1,1.5,"
        f"{bad}\nb,2,0,0.1,1.0\nc,1,1,1.5,2.0\nc,2,0,0.2,2.0\n"
    )
    with pytest.raises(ParseError, match=":4: column x1"):
        ingest_csv(path)
    for command in ("analyze", "hettest"):
        assert main([command, "--csv", str(path), "--q-spec", "x1"]) == 2
        assert ":4:" in _one_error_line(capsys)


@pytest.mark.parametrize("poly", ["0", "-1"])
@pytest.mark.parametrize("command, spec", [("analyze", "x1"), ("analyze", "q1"), ("hettest", "x1")])
def test_cli_rejects_poly_below_one(tmp_path, capsys, poly, command, spec):
    path = _write_pairs_csv(tmp_path / "pairs.csv", [0.5, 1.0, 2.5, 1.5, 3.0], x=[1, 2, 3, 4, 5])
    assert main([command, "--csv", str(path), "--q-spec", spec, "--poly", poly]) == 2
    assert "--poly" in _one_error_line(capsys)


def test_cli_hettest_rejects_negative_max_draws(tmp_path, capsys):
    path = _write_pairs_csv(tmp_path / "pairs.csv", [0.5, 1.0, 2.5, 1.5, 3.0], x=[1, 2, 3, 4, 5])
    assert main(["hettest", "--csv", str(path), "--q-spec", "x1", "--max-draws", "-5"]) == 2
    assert "max_draws" in _one_error_line(capsys)


@pytest.mark.parametrize(
    "study, extra",
    [
        ("table1", ["--blocks", "20"]),
        ("power", ["--blocks", "20", "--a-grid", "1.0"]),
        ("pate-demo", []),
    ],
)
def test_cli_simulate_rejects_zero_reps(tmp_path, capsys, study, extra):
    args = ["simulate", study, "--reps", "0", *extra, "--out-dir", str(tmp_path / study)]
    assert main(args) == 2
    assert "reps" in _one_error_line(capsys)
    assert not (tmp_path / study).exists()


@pytest.mark.parametrize(
    "study, extra, flag",
    [
        ("power", ["--reps", "2", "--seed", "-5"], "seed"),
        ("table1", ["--reps", "3", "--seed", "-1"], "seed"),
        ("pate-demo", ["--reps", "3", "--seed", "-1"], "seed"),
        ("power", ["--reps", "2", "--alpha", "2"], "alpha"),
        ("power", ["--reps", "2", "--alpha", "nan"], "alpha"),
        ("power", ["--reps", "2", "--alpha", "0"], "alpha"),
    ],
)
def test_cli_simulate_rejects_bad_seeds_and_alphas(tmp_path, capsys, study, extra, flag):
    outdir = tmp_path / study
    assert main(["simulate", study, *extra, "--out-dir", str(outdir)]) == 2
    assert flag in _one_error_line(capsys)
    assert not outdir.exists()


def test_studies_raise_input_errors_for_bad_seeds_and_alphas():
    for study in (
        lambda: run_table1(reps=3, seed=-1),
        lambda: run_table1(reps=3, seed=1.5),
        lambda: pate_demo(reps=3, seed=-2),
        lambda: run_power_curve(a_grid=(1.0,), reps=2, seed=-5),
        lambda: run_power_curve(a_grid=(1.0,), reps=2, alpha=float("nan")),
        lambda: run_power_curve(a_grid=(1.0,), reps=2, alpha=1.0),
    ):
        with pytest.raises(InputError):
            study()


@pytest.mark.parametrize("n_blocks, max_draws", [(30, 99), (6, 99)], ids=["sampled", "enumerated"])
def test_cli_hettest_rejects_a_negative_seed(tmp_path, capsys, n_blocks, max_draws):
    # 2**6 = 64 assignments are enumerated, 2**30 sampled; both refuse the seed first
    rng = np.random.default_rng(n_blocks)
    path = _write_pairs_csv(tmp_path / "pairs.csv", rng.normal(size=n_blocks), x=rng.normal(size=n_blocks))
    args = ["hettest", "--csv", str(path), "--q-spec", "x1", "--max-draws", str(max_draws)]
    assert main([*args, "--seed", "-1"]) == 2
    assert "seed" in _one_error_line(capsys)


def test_sample_assignment_rejects_a_negative_integer_seed():
    design = BlockDesign.from_sizes([2, 3, 4], [1, 2, 2])
    with pytest.raises(InputError, match="seed"):
        sample_assignment(design, -3)
    with pytest.raises(InputError, match="seed"):
        sample_assignment(design, np.int64(-3))
    want = sample_assignment(design, np.random.default_rng(4))
    assert sample_assignment(design, np.random.SeedSequence(4)) == want
    assert sample_assignment(design, 4) == want
    assert sum(map(sum, sample_assignment(design, None).z)) == 5


@pytest.mark.parametrize(
    "study, blocks",
    [("table1", "0"), ("table1", "3"), ("table1", "12"), ("power", "0"), ("power", "2")],
)
def test_cli_simulate_rejects_block_counts_without_a_basis(tmp_path, capsys, monkeypatch, study, blocks):
    # no basis: 0 or 2 blocks leave q1 no residual, 3 (a triplet and two
    # pairs) give the triplet leverage one, 12 cannot hold q1 and ten covariates
    def no_replicates(args):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(simulate_module, "_table1_chunk", no_replicates)
    monkeypatch.setattr(simulate_module, "_power_chunk", no_replicates)
    outdir = tmp_path / study
    args = ["simulate", study, "--reps", "3", "--blocks", blocks, "--out-dir", str(outdir)]
    assert main(args) == 2
    assert f"a study of {blocks} blocks" in _one_error_line(capsys)
    assert not outdir.exists()


@pytest.mark.parametrize("scale", [["--a", "nan"], ["--b", "inf"], ["--a", "1e308"]])
def test_cli_simulate_table1_rejects_non_finite_worlds(tmp_path, capsys, scale):
    outdir = tmp_path / "t1"
    assert main(["simulate", "table1", "--reps", "3", *scale, "--out-dir", str(outdir)]) == 2
    assert "non-finite" in _one_error_line(capsys)
    assert not outdir.exists()


def test_cli_rejects_alpha_too_small_for_a_finite_interval(tmp_path, capsys):
    # 1 - alpha/2 rounds to one, so the normal quantile would be infinite
    path = _write_pairs_csv(tmp_path / "pairs.csv", [0.5, 1.0, 2.5, 1.5, 3.0])
    assert main(["analyze", "--csv", str(path), "--alpha", "1e-17"]) == 2
    assert "alpha" in _one_error_line(capsys)


def test_cli_prints_warnings_as_one_line_each_and_only_on_success(tmp_path, capsys):
    # x2 is constant, so centering removes it: beside x1 the run succeeds
    # with one warning line; alone it fails with the error line only
    good = tmp_path / "good.csv"
    rows = ["block_id,unit_id,treated,response,x1,x2"]
    for b in range(6):
        rows += [f"b{b},1,1,{b + 0.5},{b},0", f"b{b},2,0,0.{b},{b},0"]
    good.write_text("\n".join(rows) + "\n")
    assert main(["analyze", "--csv", str(good), "--q-spec", "x1,x2"]) == 0
    captured = capsys.readouterr()
    json.loads(captured.out)
    assert captured.err.splitlines() == [
        "warning: covariate columns [1] vanished after weighting and centering; dropped"
    ]

    assert main(["analyze", "--csv", str(good), "--q-spec", "x2"]) == 5
    assert "vanished" in _one_error_line(capsys)


# ---------------------------------------------------------------------------
# header names and line numbers
# ---------------------------------------------------------------------------


def test_padded_header_names_parse_like_clean_ones(tmp_path, capsys):
    rows = (
        "a,1,1,2.0,0.5\na,2,0,1.0,0.7\nb,1,1,1.5,0.2\n"
        "b,2,0,0.1,0.9\nc,1,1,3.0,0.4\nc,2,0,0.3,0.1\n"
    )
    clean = tmp_path / "clean.csv"
    clean.write_text("block_id,unit_id,treated,response,x1\n" + rows)
    padded = tmp_path / "padded.csv"
    padded.write_text("block_id, unit_id,treated ,\tresponse, x1 \n" + rows)
    want_design, want_data = ingest_csv(clean)
    got_design, got_data = ingest_csv(padded)
    assert [b.block_id for b in got_design.blocks] == ["a", "b", "c"]
    assert got_data.assignment.z == want_data.assignment.z
    for got, want in zip(got_design.blocks, want_design.blocks):
        np.testing.assert_array_equal(got.covariates, want.covariates)
    for got, want in zip(got_data.responses, want_data.responses):
        np.testing.assert_array_equal(got, want)
    assert main(["analyze", "--csv", str(padded), "--q-spec", "x1"]) == 0
    padded_report = capsys.readouterr().out
    assert main(["analyze", "--csv", str(clean), "--q-spec", "x1"]) == 0
    assert padded_report == capsys.readouterr().out


@pytest.mark.parametrize(
    "header, duplicated",
    [
        ("block_id,unit_id,treated,response,x1,x1", "['x1']"),
        ("block_id,unit_id,treated,response,treated", "['treated']"),
        ("block_id,unit_id, treated,response,treated ,x1", "['treated']"),
    ],
)
def test_duplicated_column_names_are_a_schema_error(tmp_path, capsys, header, duplicated):
    n_cells = header.count(",") + 1
    rows = [f"{b},{u},{int(u == 1)}" + ",1.0" * (n_cells - 3) for b in "ab" for u in (1, 2)]
    path = tmp_path / "dup_columns.csv"
    path.write_text("\n".join([header] + rows) + "\n")
    with pytest.raises(SchemaError, match=rf"duplicated column names \{duplicated}"):
        ingest_csv(path)
    assert main(["analyze", "--csv", str(path), "--q-spec", "x1"]) == 2
    assert "duplicated column names" in _one_error_line(capsys)


def test_errors_name_the_physical_line_after_blank_lines(tmp_path, capsys):
    path = tmp_path / "blank.csv"
    path.write_text(
        "block_id,unit_id,treated,response\na,1,1,1.0\n\na,2,0,2.0\nb,1,1,3.0\nb,2,0,x\n"
    )
    with pytest.raises(ParseError, match=r"blank\.csv:6: response 'x' is not a number"):
        ingest_csv(path)
    assert main(["analyze", "--csv", str(path)]) == 2
    assert ":6:" in _one_error_line(capsys)
    # a quoted cell spanning two lines: the row ends on line 4
    path.write_text('block_id,unit_id,treated,response\n"a\n",1,1,1.0\na,2,2,2.0\n')
    with pytest.raises(ParseError, match=r"blank\.csv:4: treated must be 0 or 1"):
        ingest_csv(path)


def test_byte_the_encoding_rejects_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "raw_byte.csv"
    path.write_bytes(b"block_id,unit_id,treated,response\na,1,1,1.0\na,2,0,2\xff\nb,1,1,3.0\n")
    with pytest.raises(ParseError, match=r"raw_byte\.csv:3: byte 0xff is not valid"):
        ingest_csv(path)
    assert main(["analyze", "--csv", str(path)]) == 2
    assert "byte 0xff" in _one_error_line(capsys)


def test_cell_over_the_csv_field_limit_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "oversize.csv"
    path.write_text(
        "block_id,unit_id,treated,response\na,1,1,1.0\na,2,0,2.0\nb,1,1," + "7" * 140_000 + "\n"
    )
    with pytest.raises(ParseError, match=r"oversize\.csv:4: field larger than field limit"):
        ingest_csv(path)
    assert main(["hettest", "--csv", str(path)]) == 2
    assert "field larger than field limit" in _one_error_line(capsys)


def test_repeated_main_calls_match_fresh_parsers(tmp_path, capsys):
    taus = [1.0, 2.5, -0.5, 3.0, 0.25, 1.75, 0.5]
    x = [0.1, 0.4, 0.2, 0.9, 0.5, 0.3, 0.7]
    csv_path = str(_write_pairs_csv(tmp_path / "exp.csv", taus, x=x))
    calls = [
        ["analyze", "--csv", csv_path],
        ["hettest", "--csv", csv_path, "--q-spec", "x1", "--max-draws", "40", "--seed", "3"],
        ["analyze", "--csv", csv_path, "--alpha", "1.5"],  # a library error: exit 2
        ["hettest", "--csv"],  # a parse error
        ["--help"],
        ["simulate", "power", "--help"],
        ["analyze", "--csv", csv_path, "--q-spec", "x1", "--estimators", "s1,s3"],
        ["simulate", "pairs-quartets", "--out-dir", str(tmp_path / "pq")],
    ]

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(argv))
    assert {code for code, *_ in fresh} == {0, 2}
    for _ in range(2):  # the parser built by the first call serves all the others
        assert [run(argv) for argv in calls] == fresh
