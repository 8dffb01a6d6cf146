"""The interval's normal quantile against ``scipy.stats.norm.ppf``.

``confidence_interval`` takes z_{1-alpha/2} from the standard library's
``NormalDist``, so that the library never imports scipy. Its half-width must
stay within 8 ulp of scipy's quantile, and an alpha with no finite quantile
must still be refused with the same message, in the library and on the
command line.
"""
from __future__ import annotations

import numpy as np
import pytest
import scipy.stats

from stratavar.cli import main
from stratavar.errors import InvalidAlpha
from stratavar.estimators import confidence_interval

ALPHAS = np.concatenate([np.logspace(-16, np.log10(0.999), 2_000), [0.05, 0.1, 0.01, 0.5, 0.999]])


def test_half_width_is_within_8_ulp_of_scipy():
    finite = 0
    for alpha in ALPHAS:
        z = float(scipy.stats.norm.ppf(1.0 - alpha / 2.0))
        if np.isinf(z):  # 1 - alpha/2 rounds to one
            with pytest.raises(InvalidAlpha, match="rounds to one"):
                confidence_interval(0.0, 1.0, float(alpha))
            continue
        low, high = confidence_interval(0.0, 1.0, float(alpha))
        assert low == -high
        assert abs(high - z) <= 8 * np.spacing(z), alpha
        finite += 1
    assert finite >= len(ALPHAS) - 10


@pytest.mark.parametrize(
    "alpha, message",
    [
        (1e-17, "alpha 1e-17 is too small: 1 - alpha/2 rounds to one"),
        (0.0, "alpha must lie in (0, 1), got 0.0"),
    ],
)
def test_alpha_without_a_finite_quantile_keeps_its_message(alpha, message):
    with pytest.raises(InvalidAlpha) as caught:
        confidence_interval(1.0, 2.0, alpha)
    assert str(caught.value) == message


def test_cli_alpha_too_small_exits_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "pairs.csv"
    path.write_text(
        "block_id,unit_id,treated,response\n"
        + "".join(f"b{b},{j},{int(j == 0)},{b + 1.5 * j}\n" for b in range(5) for j in range(2))
    )
    assert main(["analyze", "--csv", str(path), "--alpha", "1e-17"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: alpha 1e-17 is too small: 1 - alpha/2 rounds to one"
    ]
