"""The A/B rules of ``tools/bench_ab.py``: each metric's bound, and a gain."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_ab", Path(__file__).resolve().parents[1] / "tools" / "bench_ab.py")
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

LOWER = {"name": "pass_s", "better": "lower", "bound": 0.25}
HIGHER = {"name": "ops_per_s", "better": "higher", "bound": 0.25}
PARENT = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.02, 0.98, 1.01, 0.99]


def test_clear_gain():
    row = bench_ab.compare(LOWER, PARENT, [0.5 * p for p in PARENT])
    assert row["wins"] == 10 and row["gain"] and row["bound_ok"]
    assert row["relative"] == pytest.approx(-0.5)


def test_gain_needs_nine_wins_in_ten():
    change = [0.5 * p for p in PARENT[:8]] + [2.0, 2.0]
    row = bench_ab.compare(LOWER, PARENT, change)
    assert row["wins"] == 8 and not row["gain"]


def test_gain_needs_more_than_the_parent_iqr():
    # wins every pair, by less than the parent's quartile spread
    row = bench_ab.compare(LOWER, PARENT, [p - 0.001 for p in PARENT])
    assert row["wins"] == 10 and not row["gain"]


@pytest.mark.parametrize("factor, ok", [(1.24, True), (1.26, False)])
def test_bound_on_a_lower_is_better_metric(factor, ok):
    assert bench_ab.compare(LOWER, PARENT, [factor * p for p in PARENT])["bound_ok"] is ok


@pytest.mark.parametrize("factor, ok", [(0.76, True), (0.74, False)])
def test_bound_on_a_higher_is_better_metric(factor, ok):
    assert bench_ab.compare(HIGHER, PARENT, [factor * p for p in PARENT])["bound_ok"] is ok
