"""In-memory spans around the library's public calls, and the per-layer
metrics derived from them.

``Tracer.install`` wraps each public function in ``TRACED`` and rebinds
every name in the package that refers to it, so calls made inside the
library (the CLI calling ``ingest_csv``, ``build_q2`` calling ``build_q1``)
are recorded too. Private helpers are not wrapped: their time counts as
self time of the enclosing public span. Spans are kept in flat arrays and
written out once, at the end of a run.
"""
from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# module -> public functions that get a span
TRACED = {
    "cli": ("main",),
    "experiment_io": ("ingest_csv",),
    "design": ("sample_assignment",),
    "projection": ("build_q1", "build_q2"),
    "estimators": (
        "analyze_experiment",
        "block_effects",
        "var_s1",
        "var_s2",
        "var_s3",
        "var_paired_classical",
        "var_coarse_classical",
    ),
    "hettest": ("permutation_test",),
    "oracle": (
        "true_ate_variance",
        "expected_bias_s1",
        "expected_bias_s2",
        "expected_bias_scs",
        "draw_world",
        "observed_responses",
    ),
    "simulate": ("run_table1", "run_power_curve", "friedman_world", "resolve_qspec"),
}
# span name -> attributes taken from the call's return value
RESULT_ATTRS = {
    "experiment_io.ingest_csv": lambda r: {"rows": r[0].n_units},
    "projection.build_q1": lambda q: {"hat_bytes": 8 * q.n_blocks**2},
    "projection.build_q2": lambda q: {"hat_bytes": 8 * q.n_blocks**2},
    "hettest.permutation_test": lambda r: {"draws": r.draws, "exact": r.exact},
    "simulate.run_table1": lambda r: {"reps": r.reps},
}
OP = "bench.op"
CLOSED_FORMS = (
    "oracle.true_ate_variance",
    "oracle.expected_bias_s1",
    "oracle.expected_bias_s2",
    "oracle.expected_bias_scs",
)


class Tracer:
    """Spans (name, start, end, parent, op id) in flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []
        self._op_id = -1

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: int) -> int:
        self._op_id = op_id
        return self.open(OP)

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around every call."""
        hook = RESULT_ATTRS.get(name)

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                self.attrs[idx] = hook(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str = "stratavar"):
        """Wrap the traced functions everywhere the package binds them.

        Returns a callable that restores the original bindings.
        """
        modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
        replacements = {}
        for mod_name, fn_names in TRACED.items():
            module = sys.modules[f"{package}.{mod_name}"]
            for fn_name in fn_names:
                original = getattr(module, fn_name)
                replacements[id(original)] = (original, self.wrap(f"{mod_name}.{fn_name}", original))
        patched = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    patched.append((module, attr, value))

        def restore():
            for module, attr, value in patched:
                setattr(module, attr, value)

        return restore

    def table(self) -> "SpanTable":
        return SpanTable(
            names=list(self.names),
            name=np.frombuffer(self.name, dtype=np.int32).copy(),
            start=np.frombuffer(self.start, dtype=np.float64).copy(),
            end=np.frombuffer(self.end, dtype=np.float64).copy(),
            parent=np.frombuffer(self.parent, dtype=np.int32).copy(),
            op=np.frombuffer(self.op, dtype=np.int32).copy(),
            attrs=dict(self.attrs),
        )


class SpanTable:
    """Finished spans as columns; parents always precede their children."""

    def __init__(self, names, name, start, end, parent, op, attrs=None):
        self.names = list(names)
        self.name = np.asarray(name, dtype=np.int64)
        self.start = np.asarray(start, dtype=float)
        self.end = np.asarray(end, dtype=float)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.op = np.asarray(op, dtype=np.int64)
        self.attrs = attrs or {}
        self.duration = self.end - self.start

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=self.name,
            start=self.start,
            end=self.end,
            parent=self.parent,
            op=self.op,
        )

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.name.shape[0], dtype=bool)
        return self.name == self.names.index(name)

    def library_coverage(self) -> float:
        """Time covered by outermost library spans; bench.* and cli.* are glue."""
        is_lib = np.array(
            [not (self.names[n].startswith("bench.") or self.names[n].startswith("cli.")) for n in self.name],
            dtype=bool,
        )
        inside_lib = np.zeros_like(is_lib)
        for i, p in enumerate(self.parent):
            if p >= 0:
                inside_lib[i] = is_lib[p] or inside_lib[p]
        return float(self.duration[is_lib & ~inside_lib].sum())


def _attr_sum(t: SpanTable, name: str, key: str) -> float:
    return float(sum(t.attrs[i][key] for i in np.flatnonzero(t.mask(name))))


def _per_call(total: float, calls: int, scale: float) -> float:
    return total / calls * scale if calls else 0.0


def layer_metrics(t: SpanTable, traced_wall: float, untraced_wall: float) -> dict:
    """Every per-layer metric; layers that did no work report zero.

    Counts and busy or self times are per op of the traced run, so they do
    not depend on how many ops fit into the run.
    """
    n_ops = int(t.mask(OP).sum())
    out = {}

    def calls(name):
        return int(t.mask(name).sum())

    def busy(name):
        return float(t.duration[t.mask(name)].sum())

    be = "estimators.block_effects"
    out[f"{be}.calls"] = calls(be) / n_ops
    out[f"{be}.us_per_call"] = _per_call(busy(be), calls(be), 1e6)
    for name in ("var_s1", "var_s2"):
        out[f"estimators.{name}.us_per_call"] = _per_call(
            busy(f"estimators.{name}"), calls(f"estimators.{name}"), 1e6
        )
    classical = ("estimators.var_paired_classical", "estimators.var_coarse_classical")
    out["estimators.var_classical.us_per_call"] = _per_call(
        sum(busy(n) for n in classical), sum(calls(n) for n in classical), 1e6
    )

    out["oracle.closed_forms.busy_s"] = sum(busy(n) for n in CLOSED_FORMS) / n_ops

    for q in ("build_q1", "build_q2"):
        name = f"projection.{q}"
        out[f"{name}.busy_s"] = busy(name) / n_ops
        out[f"{name}.calls"] = calls(name) / n_ops
        out[f"{name}.ms_per_call"] = _per_call(busy(name), calls(name), 1e3)
    out["projection.basis_bytes"] = (
        _attr_sum(t, "projection.build_q1", "hat_bytes") + _attr_sum(t, "projection.build_q2", "hat_bytes")
    ) / n_ops

    pt = "hettest.permutation_test"
    pt_idx = np.flatnonzero(t.mask(pt))
    out[f"{pt}.busy_s"] = busy(pt) / n_ops
    out[f"{pt}.calls"] = calls(pt) / n_ops
    for kind, exact in (("mc_draws", False), ("exact_assignments", True)):
        chosen = [i for i in pt_idx if t.attrs[i]["exact"] is exact]
        draws = sum(t.attrs[i]["draws"] for i in chosen)
        seconds = float(t.duration[chosen].sum()) if chosen else 0.0
        out[f"hettest.{kind}_per_s"] = draws / seconds if seconds else 0.0
    out["hettest.draws"] = _attr_sum(t, pt, "draws") / n_ops

    io = "experiment_io.ingest_csv"
    out[f"{io}.busy_s"] = busy(io) / n_ops
    out[f"{io}.calls"] = calls(io) / n_ops
    out[f"{io}.rows_per_s"] = _attr_sum(t, io, "rows") / busy(io) if calls(io) else 0.0

    rt = "simulate.run_table1"
    out[f"{rt}.reps_per_s"] = _attr_sum(t, rt, "reps") / busy(rt) if calls(rt) else 0.0
    for name, scale, unit in (
        ("simulate.friedman_world", 1e6, "us"),
        ("simulate.resolve_qspec", 1e3, "ms"),
        ("design.sample_assignment", 1e6, "us"),
        ("oracle.draw_world", 1e6, "us"),
        ("oracle.observed_responses", 1e6, "us"),
    ):
        out[f"{name}.{unit}_per_call"] = _per_call(busy(name), calls(name), scale)

    out["trace.unattributed_s"] = (busy(OP) - t.library_coverage()) / n_ops
    out["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return out
