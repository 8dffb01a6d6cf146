"""Command line front end for analysis, testing, and simulation.

Exit codes: 0 success, 2 input problems and usage errors, 3 invalid designs,
4 estimator/design mismatches, 5 numerical failures and running out of memory.
A failure prints one ``error:`` line on stderr. Write an exponent-form
negative value as ``--b=-1e+16``; argparse reads a separate ``-1e+16`` as a flag.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import os
import sys
import warnings
from pathlib import Path

from ._util import fmt_human, fmt_raw
from .design import BlockDesign
from .errors import (
    DesignError,
    IncompatibleEstimator,
    InputError,
    NumericalError,
)
from .estimators import analyze_experiment
from .experiment_io import covariate_number, ingest_csv
from .hettest import permutation_test
from .projection import QMatrix, build_q1, build_q2
from .simulate import (
    DEFAULT_A_GRID,
    TABLE1_RAW_COLUMNS,
    FriedmanConfig,
    pairs_quartets_study,
    pate_demo,
    run_power_curve,
    run_table1,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DESIGN = 3
EXIT_INCOMPATIBLE = 4
EXIT_NUMERICAL = 5


def _resolve_threads(value: int | None) -> int:
    """--threads wins; otherwise the STRATAVAR_THREADS variable; otherwise 1."""
    if value is not None:
        if value < 1:
            raise InputError(f"--threads must be at least 1, got {value}")
        return value
    env = os.environ.get("STRATAVAR_THREADS", "").strip()
    if env:
        try:
            parsed = int(env)
        except ValueError:
            raise InputError(f"STRATAVAR_THREADS must be an integer, got {env!r}") from None
        if parsed < 1:
            raise InputError(f"STRATAVAR_THREADS must be at least 1, got {parsed}")
        return parsed
    return 1


def _covariate_indices(design: BlockDesign, names: list[str]) -> list[int]:
    indices = []
    for name in names:
        k = covariate_number(name)
        if k is None:
            raise InputError(
                f"covariate {name!r} is not a covariate column name of the form x1..xK"
            )
        j = k - 1
        if not 0 <= j < design.covariate_dim:
            raise InputError(
                f"covariate {name!r} not in the file; it has {design.covariate_dim} "
                "covariate columns"
            )
        indices.append(j)
    if len(set(indices)) != len(indices):
        raise InputError(f"duplicate covariate names in {names}")
    return indices


def _build_qspec(design: BlockDesign, spec: str, poly: int) -> QMatrix:
    """Turn a --q-spec value into a basis: "q1" or comma-separated column names."""
    if poly < 1:
        raise InputError(f"--poly must be at least 1, got {poly}")
    if spec == "q1":
        return build_q1(design)
    names = [s.strip() for s in spec.split(",") if s.strip()]
    if not names:
        raise InputError("--q-spec must be 'q1' or a comma-separated list of covariate names")
    return build_q2(design, poly_degree=poly, columns=_covariate_indices(design, names))


def _emit_json(payload: dict, out: str | None, summary_lines: list[str]) -> None:
    """JSON to stdout, or to --out with a short human summary on stdout."""
    text = json.dumps(payload, indent=2)
    if out is None:
        print(text)
        return
    Path(out).write_text(text + "\n")
    for line in summary_lines:
        print(line)
    print(f"wrote {out}")


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return fmt_raw(value)
    return str(value)


def _write_csv(path: Path, rows: list[dict], columns: list[str]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_csv_cell(row[c]) for c in columns])


def _require_responses(data) -> None:
    if data is None:
        raise InputError("the file has no responses; analysis needs observed outcomes")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_analyze(args) -> int:
    design, data = ingest_csv(args.csv)
    _require_responses(data)
    q = _build_qspec(design, args.q_spec, args.poly)
    estimators = "auto" if args.estimators == "auto" else [
        s.strip() for s in args.estimators.split(",") if s.strip()
    ]
    report = analyze_experiment(design, data, q=q, estimators=estimators, alpha=args.alpha)
    payload = report.to_dict()

    lines = [
        f"estimate {fmt_human(report.delta_hat)}  "
        f"({report.design_class} design, {report.n_blocks} blocks, {report.n_units} units)"
    ]
    for name, value in report.estimates.items():
        lo, hi = report.intervals[name]
        lines.append(
            f"  {name:<6} variance {fmt_human(value)}  se {fmt_human(value ** 0.5)}  "
            f"ci [{fmt_human(lo)}, {fmt_human(hi)}]"
        )
    for message in report.warnings:
        lines.append(f"  warning: {message}")
    _emit_json(payload, args.out, lines)
    return EXIT_OK


def cmd_hettest(args) -> int:
    design, data = ingest_csv(args.csv)
    _require_responses(data)
    if args.q_spec == "q1":
        raise InputError("the heterogeneity test needs covariates; pass --q-spec with column names")
    q2 = _build_qspec(design, args.q_spec, args.poly)
    threads = _resolve_threads(args.threads)
    result = permutation_test(
        design, data, q2, max_draws=args.max_draws, seed=args.seed, threads=threads
    )
    payload = result.to_dict()
    f_text = "inf" if payload["f_observed"] is None else fmt_human(result.f_observed)
    lines = [
        f"F {f_text} on ({result.numerator_df}, {result.denominator_df}) df; "
        f"p {fmt_human(result.p_value)} "
        f"({'exact, ' if result.exact else ''}{result.draws} draws)"
    ]
    lines.extend(f"  note: {n}" for n in result.notes)
    _emit_json(payload, args.out, lines)
    return EXIT_OK


def _out_dir(args) -> Path:
    path = Path(args.out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_sim_table1(args) -> int:
    threads = _resolve_threads(args.threads)
    config = FriedmanConfig(n_blocks=args.blocks, a=args.a, b=args.b)
    result = run_table1(
        config, reps=args.reps, seed=args.seed, threads=threads, collect_raw=args.raw
    )
    outdir = _out_dir(args)

    cells = [dict(cell, reps=args.reps) for cell in result.cells]
    cells_path = outdir / "table1_cells.csv"
    _write_csv(cells_path, cells, ["estimator", "qspec", "mean", "mc_se", "reps"])

    summary = {
        "config": dataclasses.asdict(config),
        "reps": result.reps,
        "seed": args.seed,
        "delta_mean": result.delta_mean,
        "targets": result.targets,
    }
    summary_path = outdir / "table1_summary.json"
    summary_path.write_text(json.dumps(summary, indent=2) + "\n")

    written = [cells_path, summary_path]
    if args.raw:
        raw_path = outdir / "table1_raw.csv"
        raw_rows = [
            dict(zip(TABLE1_RAW_COLUMNS, map(float, row)), rep=i)
            for i, row in enumerate(result.raw)
        ]
        _write_csv(raw_path, raw_rows, ["rep", *TABLE1_RAW_COLUMNS])
        written.append(raw_path)

    for name, target in result.targets.items():
        print(f"{name} {fmt_human(target['value'])} (mc se {fmt_human(target['mc_se'])})")
    for cell in result.cells:
        print(
            f"{cell['estimator']} / {cell['qspec']}: mean {fmt_human(cell['mean'])} "
            f"(mc se {fmt_human(cell['mc_se'])})"
        )
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_sim_power(args) -> int:
    threads = _resolve_threads(args.threads)
    config = FriedmanConfig(n_blocks=args.blocks, a=1.0, b=args.b)
    try:
        a_grid = [float(s) for s in args.a_grid.split(",") if s.strip()]
    except ValueError:
        raise InputError(f"--a-grid must be comma-separated reals, got {args.a_grid!r}") from None
    if not a_grid:
        raise InputError("--a-grid is empty")
    rows = run_power_curve(
        config,
        a_grid=a_grid,
        reps=args.reps,
        max_draws=args.max_draws,
        alpha=args.alpha,
        seed=args.seed,
        threads=threads,
        collect_raw=args.raw,
    )
    outdir = _out_dir(args)
    curve_path = outdir / "power_curve.csv"
    columns = ["a", "qspec", "reps", "rejections", "rate", "mc_se", "alpha", "max_draws"]
    _write_csv(curve_path, rows, columns)
    written = [curve_path]
    if args.raw:
        raw_rows = [
            dict(a=row["a"], qspec=row["qspec"], rep=rep, p_value=p, reject=int(p <= row["alpha"]))
            for row in rows
            for rep, p in enumerate(row["p_values"])
        ]
        raw_path = outdir / "power_raw.csv"
        _write_csv(raw_path, raw_rows, ["a", "qspec", "rep", "p_value", "reject"])
        written.append(raw_path)

    for row in rows:
        print(
            f"a {fmt_human(row['a'])} / {row['qspec']}: "
            f"rate {fmt_human(row['rate'])} (mc se {fmt_human(row['mc_se'])})"
        )
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_sim_pairs_quartets(args) -> int:
    rows = pairs_quartets_study()
    outdir = _out_dir(args)
    path = outdir / "pairs_quartets.csv"
    _write_csv(path, rows, ["design", "covariate_spec", "estimator", "expected_value", "bias_term"])
    for row in rows:
        print(
            f"{row['design']} / {row['covariate_spec']} / {row['estimator']}: "
            f"{fmt_human(row['expected_value'])} (bias {fmt_human(row['bias_term'])})"
        )
    print(f"wrote {path}")
    return EXIT_OK


def cmd_sim_pate_demo(args) -> int:
    threads = _resolve_threads(args.threads)
    out = pate_demo(reps=args.reps, seed=args.seed, threads=threads)
    outdir = _out_dir(args)
    path = outdir / "pate_demo.json"
    path.write_text(json.dumps(out, indent=2) + "\n")
    print(
        f"across-worlds variance {fmt_human(out['pate_variance'])}, "
        f"mean within-world variance {fmt_human(out['sate_variance_mean'])}"
    )
    for name, cell in out["cells"].items():
        verdicts = []
        if out["anticonservative_for_pate"][name]:
            verdicts.append("anticonservative for the across-worlds variance")
        if out["conservative_for_sate"][name]:
            verdicts.append("conservative for the within-world variance")
        tail = "; ".join(verdicts) if verdicts else "no verdict"
        print(f"s1 / {name}: mean {fmt_human(cell['mean'])} ({tail})")
    print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise InputError, so they leave ``main``
    through EXIT_CODES like every other failure."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stratavar",
        description=(
            "Estimation, conservative variance estimation, and effect-heterogeneity "
            "testing for block-randomized experiments"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # flags shared between subcommands, each defined once
    data = _Parser(add_help=False)
    data.add_argument("--csv", required=True, help="experiment CSV file")
    data.add_argument(
        "--q-spec",
        default="q1",
        help="'q1' or comma-separated covariate column names, e.g. x1,x2 (default: q1)",
    )
    data.add_argument(
        "--poly",
        type=int,
        default=1,
        help="power expansion degree for the named covariates (default: 1)",
    )
    data.add_argument("--out", default=None, help="write the JSON here instead of stdout")
    seeded = _Parser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    seeded.add_argument(
        "--threads", type=int, help="worker processes; falls back to STRATAVAR_THREADS, then 1"
    )
    out_dir = _Parser(add_help=False)
    out_dir.add_argument("--out-dir", default=".", help="directory for output files (default .)")
    study = [seeded, out_dir]

    analyze = sub.add_parser(
        "analyze", parents=[data], help="estimate the treatment effect from a CSV file"
    )
    analyze.add_argument(
        "--estimators",
        default="auto",
        help="'auto' or comma-separated subset of paired,coarse,s1,s2,s3",
    )
    analyze.add_argument("--alpha", type=float, default=0.05, help="CI miscoverage (default 0.05)")
    analyze.set_defaults(func=cmd_analyze)

    het = sub.add_parser(
        "hettest", parents=[data, seeded], help="permutation test of constant treatment effects"
    )
    het.add_argument(
        "--max-draws",
        type=int,
        default=10_000,
        help="enumerate exactly up to this many assignments, then sample (default 10000)",
    )
    het.set_defaults(func=cmd_hettest)

    sim = sub.add_parser("simulate", help="run the numerical studies")
    simsub = sim.add_subparsers(dest="study", required=True)

    t1 = simsub.add_parser(
        "table1", parents=study, help="estimator means under the nonlinear response surface"
    )
    t1.add_argument("--reps", type=int, default=10_000)
    t1.add_argument("--blocks", type=int, default=100)
    t1.add_argument("--a", type=float, default=2.0, help="treated signal scale (default 2)")
    t1.add_argument("--b", type=float, default=2.0, help="treated noise scale (default 2)")
    t1.add_argument("--raw", action="store_true", help="also write per-replicate values")
    t1.set_defaults(func=cmd_sim_table1)

    pw = simsub.add_parser("power", parents=study, help="heterogeneity test power along a signal grid")
    pw.add_argument("--reps", type=int, default=1000)
    pw.add_argument("--blocks", type=int, default=20)
    pw.add_argument("--b", type=float, default=1.0, help="treated noise scale (default 1)")
    pw.add_argument(
        "--a-grid",
        default=",".join(str(a) for a in DEFAULT_A_GRID),
        help="comma-separated treated signal scales",
    )
    pw.add_argument("--max-draws", type=int, default=999)
    pw.add_argument("--alpha", type=float, default=0.05)
    pw.add_argument("--raw", action="store_true", help="also write per-replicate p-values")
    pw.set_defaults(func=cmd_sim_power)

    pq = simsub.add_parser(
        "pairs-quartets",
        parents=[out_dir],
        help="closed-form pairs versus quartets comparison (deterministic)",
    )
    pq.set_defaults(func=cmd_sim_pairs_quartets)

    pd = simsub.add_parser(
        "pate-demo", parents=study, help="within-world versus across-worlds variance targets"
    )
    pd.add_argument("--reps", type=int, default=2000)
    pd.set_defaults(func=cmd_sim_pate_demo)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later ``main`` call."""
    return build_parser()


EXIT_CODES = {
    InputError: EXIT_INPUT,
    DesignError: EXIT_DESIGN,
    IncompatibleEstimator: EXIT_INCOMPATIBLE,
    NumericalError: EXIT_NUMERICAL,
    OSError: EXIT_INPUT,
    MemoryError: EXIT_NUMERICAL,
}


def main(argv=None) -> int:
    """Run one subcommand. A failure prints exactly one ``error:`` line on
    stderr; warnings raised along the way print as one ``warning:`` line each,
    and only when the command succeeds."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        try:
            args = _parser().parse_args(argv)
            code = args.func(args)
        except SystemExit as exc:  # --help
            return int(exc.code or 0)
        except tuple(EXIT_CODES) as exc:
            print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
            return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
