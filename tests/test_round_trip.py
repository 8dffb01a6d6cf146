"""Round trip of the CSV writer and reader on generated experiments.

``write_experiment_csv`` writes a design, an assignment and (unless the
file is design-only) responses; ``ingest_csv`` of that file must return
the same packed arrays bit for bit: block ids, sizes, treated counts, the
(N, K) covariates, the flat indicators and the flat responses. Values
include signed zeros, subnormals and the extremes of the float range, and
block ids that the CSV writer has to quote.
"""
from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from stratavar import Assignment, BlockDesign, ingest_csv, write_experiment_csv  # noqa: E402

FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from((0.0, -0.0, 1.0 / 3.0, 5e-324, 1e308)),
)


@st.composite
def written_experiments(draw):
    """A design of 2-6 blocks with 0-2 covariates, an assignment and, unless
    design-only, responses; block ids may need quoting in CSV."""
    layout = []
    for _ in range(draw(st.integers(2, 6))):
        n = draw(st.integers(2, 5))
        layout.append((n, draw(st.integers(1, n - 1))))
    block_id = st.text(alphabet='ab1, "x_', min_size=1, max_size=4).filter(lambda s: s == s.strip())
    ids = draw(st.lists(block_id, min_size=len(layout), max_size=len(layout), unique=True))
    k = draw(st.integers(0, 2))
    covariates = None
    if k:
        covariates = [
            np.array(draw(st.lists(FLOATS, min_size=n * k, max_size=n * k))).reshape(n, k)
            for n, _ in layout
        ]
    design = BlockDesign.from_sizes(
        [n for n, _ in layout], [kt for _, kt in layout], covariates=covariates, ids=ids
    )
    z = tuple(tuple(draw(st.permutations([1] * kt + [0] * (n - kt)))) for n, kt in layout)
    responses = None
    if draw(st.booleans()):
        responses = tuple(
            np.array(draw(st.lists(FLOATS, min_size=n, max_size=n))) for n, _ in layout
        )
    return design, Assignment(z=z), responses


def _bits(a) -> tuple | None:
    return None if a is None else (a.shape, a.dtype.str, a.tobytes())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(experiment=written_experiments())
def test_written_file_ingests_to_the_same_packed_arrays(experiment):
    design, assignment, responses = experiment
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "experiment.csv"
        write_experiment_csv(path, design, assignment, responses=responses)
        loaded, data = ingest_csv(path)
    assert loaded.ids == design.ids
    assert _bits(loaded.sizes) == _bits(design.sizes)
    assert _bits(loaded.treated_counts) == _bits(design.treated_counts)
    assert _bits(loaded.covariates) == _bits(design.covariates)
    if responses is None:
        assert data is None
        return
    assert _bits(data.assignment.indicators) == _bits(assignment.indicators)
    assert _bits(data.lengths) == _bits(design.sizes)
    assert _bits(data.r) == _bits(np.concatenate(responses))
