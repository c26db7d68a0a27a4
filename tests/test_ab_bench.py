"""The verdicts of ``scripts/ab_bench.py`` on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "ab_bench", Path(__file__).resolve().parents[1] / "scripts" / "ab_bench.py")
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)

# Ten parent runs with median 1.0 and quartiles 0.98-1.02.
PARENT = [0.96, 0.97, 0.98, 0.98, 0.99, 1.01, 1.02, 1.02, 1.03, 1.04]


def _shifted(runs, by):
    return [v + by for v in runs]


@pytest.mark.parametrize("change, verdict", [
    (PARENT, "within bound"),
    (_shifted(PARENT, 0.09), "within bound"),      # 9 % worse, bound 10 %
    (_shifted(PARENT, 0.11), "regressed"),         # 11 % worse
    (_shifted(PARENT, -0.5), "within bound"),      # far better
])
def test_regression_verdict_lower_is_better(change, verdict):
    assert ab_bench.regression_verdict(PARENT, change, "lower", 0.10) == verdict


def test_regression_verdict_higher_is_better():
    assert ab_bench.regression_verdict(PARENT, _shifted(PARENT, -0.11), "higher", 0.10) == "regressed"
    assert ab_bench.regression_verdict(PARENT, _shifted(PARENT, 0.11), "higher", 0.10) == "within bound"


def test_regression_verdict_unresolved_when_the_parent_spreads_past_the_bound():
    """Parent quartiles 0.98-1.02 (IQR 0.04) against a 1 % bound: a change no
    worse in the median is unresolved unless every run of it beats every
    parent run."""
    assert ab_bench.regression_verdict(PARENT, PARENT, "lower", 0.01) == "unresolved"
    assert ab_bench.regression_verdict(PARENT, _shifted(PARENT, -0.005), "lower", 0.01) == "unresolved"
    assert ab_bench.regression_verdict(PARENT, [0.9] * 10, "lower", 0.01) == "within bound"
    # A worse median past the bound regresses whatever the spread.
    assert ab_bench.regression_verdict(PARENT, _shifted(PARENT, 0.02), "lower", 0.01) == "regressed"


def test_gain_needs_nine_pairs_in_ten_and_a_gap_past_the_parent_spread():
    better = _shifted(PARENT, -0.05)  # wins 10/10, median gap 0.05 > IQR 0.04
    assert ab_bench.pairs_won(PARENT, better, "lower") == 10
    assert ab_bench.gain_holds(PARENT, better, "lower")
    assert not ab_bench.gain_holds(PARENT, _shifted(PARENT, -0.03), "lower")  # gap inside the IQR
    eight = better[:8] + PARENT[8:]   # ties count for neither side
    assert ab_bench.pairs_won(PARENT, eight, "lower") == 8
    assert not ab_bench.gain_holds(PARENT, eight, "lower")
    assert ab_bench.gain_holds(PARENT, _shifted(PARENT, 0.05), "higher")
