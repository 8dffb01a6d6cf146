"""Tests of the benchmark's own machinery.

Run from the repository root: python3 -m pytest perfbench/tests
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import generate  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402


def _csv_bytes(entries):
    return [Path(e["csv"]).read_bytes() for e in entries]


def test_generator_is_deterministic_per_seed(tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = generate.trial_analysis(7, dirs[0])
    again = generate.trial_analysis(7, dirs[1])
    other = generate.trial_analysis(8, dirs[2])
    assert _csv_bytes(first) == _csv_bytes(again)
    assert _csv_bytes(first) != _csv_bytes(other)
    assert [e["hettest_seed"] for e in first] == [e["hettest_seed"] for e in again]
    # the structure is fixed: only values depend on the seed
    assert [e["n_blocks"] for e in first] == [e["n_blocks"] for e in other]
    assert generate.study_seed(7, 3) == generate.study_seed(7, 3) != generate.study_seed(8, 3)


@pytest.fixture(scope="module")
def trial_op(tmp_path_factory):
    """A real exact and a real Monte Carlo trial-analysis op with references."""
    workdir = tmp_path_factory.mktemp("trial")
    entries = []
    for index, (sizes, max_draws) in enumerate(((np.full(16, 2), 150_000), (np.full(30, 3), 999))):
        rng = np.random.default_rng(index)
        treated = np.ones_like(sizes)
        entries.append(generate.trial_file(rng, sizes, treated, max_draws, workdir / f"t{index}.csv"))
    workload = worker.TrialAnalysis({"ops": entries, "lead_in": 0})
    outputs = [workload.run(i) for i in range(len(entries))]
    refs = [reference.trial_reference(e, seed=0) for e in entries]
    return checks.Checker("trial-analysis", refs), outputs


def _edit(out: dict, command: str, change) -> dict:
    code, stdout, stderr = out[command]
    payload = json.loads(stdout)
    change(payload)
    return dict(out, **{command: [code, json.dumps(payload), stderr]})


def test_checker_accepts_the_program_outputs(trial_op):
    checker, outputs = trial_op
    assert json.loads(outputs[0]["hettest"][1])["exact"] is True
    assert json.loads(outputs[1]["hettest"][1])["exact"] is False
    for index, out in enumerate(outputs):
        assert checker.check(index, out) == []


def test_checker_flags_a_perturbed_estimate(trial_op):
    checker, outputs = trial_op

    def perturb(payload):
        payload["estimates"]["s2"] *= 1.0 + 1e-6

    problems = checker.check(0, _edit(outputs[0], "analyze", perturb))
    assert any("estimate s2" in p for p in problems)


def test_checker_flags_nan(trial_op):
    checker, outputs = trial_op

    def nan(payload):
        payload["delta_hat"] = math.nan

    problems = checker.check(0, _edit(outputs[0], "analyze", nan))
    assert any("invalid JSON" in p for p in problems)


def test_checker_flags_a_schema_violation(trial_op):
    checker, outputs = trial_op

    def extra(payload):
        payload["unexpected"] = 1

    problems = checker.check(1, _edit(outputs[1], "hettest", extra))
    assert any("schema" in p for p in problems)


def test_checker_flags_a_far_monte_carlo_p_value(trial_op):
    checker, outputs = trial_op

    def shift(payload):
        payload["p_value"] = 1.0 if payload["p_value"] < 0.5 else 0.001

    problems = checker.check(1, _edit(outputs[1], "hettest", shift))
    assert any("Monte Carlo p-value" in p for p in problems)


def test_checker_flags_a_table1_cell_beyond_its_standard_errors():
    recorded = json.loads((HERE / "reference.json").read_text())
    checker = checks.Checker("simulation-studies", recorded)
    table1 = recorded["table1"]
    out = {"kind": "table1", "cells": dict(table1["cells"]), "targets": dict(table1["targets"])}
    assert checker.check(0, out) == []
    mean, se = out["cells"]["s2/correct"]
    out["cells"]["s2/correct"] = [mean + 10 * se, se]
    assert any("s2/correct" in p for p in checker.check(0, out))


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = list(np.random.default_rng(0).permutation(np.arange(1.0, 101.0)))
    value, pct = run.tail_latency(values)
    assert (value, pct) == (90.0, 90.0)
    assert sum(v > value for v in values) == 10
    value, pct = run.tail_latency(list(range(1, 12)))
    assert value == 1 and pct == pytest.approx(100.0 / 11)
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_deadline_grows_with_the_run_length():
    # a run of BENCHMARK.json's length stays within 180 s per invocation
    run_seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    assert run.deadline_s(run_seconds) <= 170.0
    for seconds in (1, 171, 600):
        assert run.deadline_s(seconds) >= run.DEADLINE_MARGIN_S + 2 * seconds


def _table(rows, attrs=None):
    """SpanTable from (name, start, end, parent) rows; every span in op 0."""
    names = sorted({r[0] for r in rows})
    return spans.SpanTable(
        names=names,
        name=[names.index(r[0]) for r in rows],
        start=[r[1] for r in rows],
        end=[r[2] for r in rows],
        parent=[r[3] for r in rows],
        op=[0] * len(rows),
        attrs=attrs or {},
    )


def test_library_coverage_counts_outermost_library_spans():
    t = _table(
        [
            ("bench.op", 0.0, 10.0, -1),
            ("cli.main", 1.0, 6.0, 0),
            ("projection.build_q2", 2.0, 3.0, 1),
            ("experiment_io.ingest_csv", 4.0, 5.5, 1),
            ("projection.build_q1", 2.25, 2.5, 2),
            ("hettest.permutation_test", 7.0, 9.0, 0),
        ]
    )
    # cli.* is glue: covered time is build_q2 + ingest_csv + permutation_test
    assert t.library_coverage() == pytest.approx(1.0 + 1.5 + 2.0)


def test_layer_metrics_on_a_hand_built_tree():
    t = _table(
        [
            ("bench.op", 0.0, 10.0, -1),
            ("simulate.run_power_curve", 0.5, 8.5, 0),
            ("hettest.permutation_test", 1.0, 3.0, 1),
            ("estimators.block_effects", 1.5, 2.0, 2),
            ("oracle.observed_responses", 4.0, 5.0, 1),
            ("hettest.permutation_test", 9.0, 9.5, 0),
        ],
        attrs={2: {"draws": 999, "exact": False}, 5: {"draws": 64, "exact": True}},
    )
    m = spans.layer_metrics(t, traced_wall=12.0, untraced_wall=10.0)
    assert m["estimators.block_effects.calls"] == 1.0
    assert m["estimators.block_effects.us_per_call"] == pytest.approx(0.5e6)
    # busy time sums every span of the name, nested or not
    assert m["hettest.permutation_test.busy_s"] == pytest.approx(2.0 + 0.5)
    assert m["hettest.mc_draws_per_s"] == pytest.approx(999 / 2.0)
    assert m["hettest.exact_assignments_per_s"] == pytest.approx(64 / 0.5)
    assert m["hettest.draws"] == 999 + 64
    assert m["oracle.observed_responses.us_per_call"] == pytest.approx(1e6)
    # the op's own time outside any outermost library span
    assert m["trace.unattributed_s"] == pytest.approx(10.0 - 8.0 - 0.5)
    assert m["trace.overhead_frac"] == pytest.approx(0.2)
    names = {entry["name"] for entry in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(m) == names


def test_tracer_records_nested_library_calls_and_restores():
    import stratavar
    import stratavar.cli

    original = stratavar.cli.build_q2
    tracer = spans.Tracer()
    restore = tracer.install()
    try:
        assert stratavar.cli.build_q2 is not original
        design = stratavar.BlockDesign.from_sizes([2] * 6, [1] * 6)
        stratavar.build_q2(design, xbar=np.arange(6.0)[:, None])
    finally:
        restore()
    assert stratavar.cli.build_q2 is original
    t = tracer.table()
    assert t.mask("projection.build_q2").sum() == 1
    q1 = np.flatnonzero(t.mask("projection.build_q1"))
    assert len(q1) == 1 and t.names[t.name[t.parent[q1[0]]]] == "projection.build_q2"
