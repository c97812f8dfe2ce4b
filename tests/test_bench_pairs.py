"""The verdict of tools/bench_pairs.py on one metric against its bound."""

from __future__ import annotations

import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture
def bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    return importlib.import_module("bench_pairs")


def test_a_median_worse_by_more_than_the_bound_is_worse_beyond_bound(bench_pairs):
    # a setup time of 0.358 s against 0.482 s is +35% at a bound of 25%
    parent, change = [0.35, 0.355, 0.358, 0.36, 0.362], [0.47, 0.48, 0.482, 0.49, 0.5]
    assert bench_pairs.verdict(parent, change, 0.25, True) == "worse beyond bound"
    # the same runs of a metric where higher is better are an improvement
    assert bench_pairs.verdict(parent, change, 0.25, False) == "within bound"
    assert bench_pairs.verdict(change, parent, 0.25, False) == "worse beyond bound"


def test_a_move_within_the_bound_is_within_bound(bench_pairs):
    parent = [1.0, 1.01, 1.02, 1.03, 1.04]
    change = [v * 1.2 for v in parent]
    assert bench_pairs.verdict(parent, change, 0.25, True) == "within bound"
    assert bench_pairs.verdict(parent, change, 0.1, True) == "worse beyond bound"
    # equal runs without spread, zeros included, are within any bound
    assert bench_pairs.verdict([1.0] * 3, [1.0] * 3, 0.0, True) == "within bound"
    assert bench_pairs.verdict([0.0] * 3, [0.0] * 3, 0.25, True) == "within bound"


def test_a_parent_spread_wider_than_the_bound_is_unresolved(bench_pairs):
    # parent quartiles 1.0 and 1.5 about a median of 1.25: an IQR of 40%
    parent = [0.8, 1.0, 1.25, 1.5, 1.7]
    assert bench_pairs.verdict(parent, parent, 0.25, True) == "unresolved"
    assert bench_pairs.verdict(parent, parent, 0.5, True) == "within bound"
    # a move beyond the bound is reported as one even when the spread is wide
    assert bench_pairs.verdict(parent, [2.0] * 5, 0.25, True) == "worse beyond bound"
