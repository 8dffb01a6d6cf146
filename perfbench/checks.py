"""Output checks; every op that fails one counts against ``error_rate``.

Deterministic values are compared at a relative error of 1e-9: the
trial-analysis outputs against ``reference.py``, and table 1's CATE
variance against ``reference.json``.
Monte Carlo outputs (sampled p-values, table-1 cells, power rates) are
compared with a tolerance of six standard errors of the difference (the
run's and the reference's), because a change may alter random streams
without being wrong.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import jsonschema

REL_TOL = 1e-9
Z = 6.0
ALPHA = 0.05
SCHEMA_DIR = Path(__file__).resolve().parent.parent / "src" / "stratavar" / "schemas"


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in JSON output")


def strict_json(text: str):
    """Parse JSON, rejecting NaN and infinities."""
    return json.loads(text, parse_constant=_reject_constant)


def rel_err(value: float, target: float) -> float:
    return abs(value - target) / max(abs(target), 1e-300)


def mc_tolerance(p1: float, n1: int, p2: float, n2: int) -> float:
    """Allowed gap between two Monte Carlo proportions of n1 and n2 draws."""
    p = (p1 * n1 + p2 * n2) / (n1 + n2)
    return Z * math.sqrt(max(p * (1.0 - p), 0.0) * (1.0 / n1 + 1.0 / n2)) + 1.0 / n1 + 1.0 / n2


class Checker:
    def __init__(self, workload: str, references):
        """``references``: per-file reference values for trial-analysis, the
        recorded study values (reference.json) for simulation-studies."""
        self.workload = workload
        self.references = references
        self.validators = {
            name: jsonschema.Draft202012Validator(json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text()))
            for name in ("variance_report", "het_test")
        }

    def check(self, index: int, out) -> list[str]:
        """Problems with one op's output; empty when it is correct."""
        if self.workload == "trial-analysis":
            return self._trial(out, self.references[index])
        return self._table1(out) if out["kind"] == "table1" else self._power(out)

    def _cli_payload(self, label: str, call: list, schema: str, problems: list[str]):
        code, stdout, stderr = call
        if code != 0:
            problems.append(f"{label} exited {code}: {stderr.strip()}")
            return None
        try:
            payload = strict_json(stdout)
        except ValueError as exc:
            problems.append(f"{label} printed invalid JSON: {exc}")
            return None
        for error in self.validators[schema].iter_errors(payload):
            problems.append(f"{label} output violates its schema: {error.message}")
        return payload

    def _close(self, label: str, value, target: float, problems: list[str]) -> None:
        if not isinstance(value, (int, float)) or not rel_err(value, target) <= REL_TOL:
            problems.append(f"{label} = {value!r}, reference {target!r}")

    def _trial(self, out: dict, ref: dict) -> list[str]:
        problems: list[str] = []
        a = self._cli_payload("analyze", out["analyze"], "variance_report", problems)
        if a is not None:
            for key in ("design_class", "n_blocks", "n_units"):
                if a.get(key) != ref[key]:
                    problems.append(f"analyze {key} = {a.get(key)!r}, reference {ref[key]!r}")
            if (a.get("q") or {}).get("rank") != ref["rank"]:
                problems.append(f"analyze basis rank {a.get('q')}, reference {ref['rank']}")
            self._close("delta_hat", a.get("delta_hat"), ref["delta_hat"], problems)
            estimates, intervals = a.get("estimates", {}), a.get("intervals", {})
            if set(estimates) != set(ref["estimates"]):
                problems.append(f"estimators {sorted(estimates)}, reference {sorted(ref['estimates'])}")
            for name, target in ref["estimates"].items():
                self._close(f"estimate {name}", estimates.get(name), target, problems)
                got = intervals.get(name, [None, None])
                for side, value, bound in zip(("lower", "upper"), got, ref["intervals"][name]):
                    self._close(f"{name} interval {side}", value, bound, problems)

        h = self._cli_payload("hettest", out["hettest"], "het_test", problems)
        if h is not None:
            hr = ref["hettest"]
            for key in ("exact", "draws", "numerator_df", "denominator_df", "seed"):
                if h.get(key) != hr[key]:
                    problems.append(f"hettest {key} = {h.get(key)!r}, reference {hr[key]!r}")
            self._close("f_observed", h.get("f_observed"), hr["f_observed"], problems)
            p = h.get("p_value")
            if hr["exact"]:
                self._close("exact p-value", p, hr["p_value"], problems)
            elif not isinstance(p, float) or abs(p - hr["p_value"]) > mc_tolerance(
                p, hr["draws"], hr["p_value"], hr["reference_draws"]
            ):
                problems.append(f"Monte Carlo p-value {p!r} too far from reference {hr['p_value']!r}")
        return problems

    def _table1(self, out: dict) -> list[str]:
        ref = self.references["table1"]
        problems: list[str] = []
        if set(out["cells"]) != set(ref["cells"]):
            problems.append(f"table-1 cells {sorted(out['cells'])}")
        values = dict(out["cells"], **out["targets"])
        targets = dict(ref["cells"], **ref["targets"])
        for name, target in targets.items():
            if name not in values:
                problems.append(f"table-1 output lacks {name}")
                continue
            value, se = values[name]
            target, ref_se = target
            if name == "cate_variance":
                self._close(name, value, target, problems)
            elif not (math.isfinite(value) and abs(value - target) <= Z * math.hypot(se, ref_se)):
                problems.append(f"table-1 {name} = {value!r} (mc se {se!r}), reference {target!r} (mc se {ref_se!r})")
        return problems

    def _power(self, out: dict) -> list[str]:
        ref = self.references["power"]
        problems: list[str] = []
        seen = set()
        for row in out["rows"]:
            key = f"{row['a']}/{row['qspec']}"
            seen.add(key)
            pv = row["p_values"]
            if len(pv) != row["reps"] or not all(0.0 < p <= 1.0 for p in pv):
                problems.append(f"power {key}: p-values outside (0, 1]")
                continue
            hits = sum(p <= ALPHA for p in pv)
            rate = ref["rates"][key]
            # two rejections of slack: a reference rate of 0 or 1 has no binomial spread
            if abs(hits - rate * len(pv)) > Z * math.sqrt(len(pv) * rate * (1.0 - rate)) + 2.0:
                problems.append(f"power {key}: {hits} of {len(pv)} rejections, reference rate {rate}")
        if seen != set(ref["rates"]):
            problems.append(f"power rows {sorted(seen)}, reference {sorted(ref['rates'])}")
        return problems

