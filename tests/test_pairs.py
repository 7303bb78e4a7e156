"""The pairs runner's statistics (``tools/pairs.py``), on synthetic values:
no benchmark runs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.03]


def test_medians_quartiles_and_wins():
    verdict = pairs.judge(PARENT, [x - 0.1 for x in PARENT], "lower", 0.25)
    parent = verdict["parent"]  # inclusive quartiles: q1 a quarter past 0.99
    quartiles = [parent[q] for q in ("q1", "median", "q3")]
    assert quartiles == pytest.approx([0.9925, 1, 1.01])
    assert verdict["change"]["median"] == pytest.approx(0.9)
    assert verdict["change_frac"] == pytest.approx(-0.1)
    assert (verdict["pairs"], verdict["wins"], verdict["losses"]) == (10, 10, 0)
    assert verdict["claim_holds"] and not verdict["worse_than_bound"]


def test_a_gap_inside_the_parents_spread_is_no_claim():
    # 10 wins, but the median gap 0.015 is below the parent's IQR 0.0175
    verdict = pairs.judge(PARENT, [x - 0.015 for x in PARENT], "lower", 0.25)
    assert verdict["wins"] == 10 and not verdict["claim_holds"]


def test_eight_wins_in_ten_are_no_claim_and_ties_count_for_neither():
    change = [x - 0.1 for x in PARENT[:8]] + PARENT[8:9] + [PARENT[9] + 1]
    verdict = pairs.judge(PARENT, change, "lower", 0.25)
    assert (verdict["wins"], verdict["losses"]) == (8, 1)
    assert not verdict["claim_holds"]
    change = [x - 0.1 for x in PARENT[:9]] + PARENT[9:]
    nine = pairs.judge(PARENT, change, "lower", 0.25)
    assert nine["wins"] == 9 and nine["claim_holds"]


def test_higher_is_better_and_the_bound_is_a_fraction_of_the_parent():
    verdict = pairs.judge(PARENT, [x + 0.1 for x in PARENT], "higher", 0.25)
    assert verdict["wins"] == 10 and verdict["claim_holds"]
    assert verdict["change_frac"] == pytest.approx(0.1)
    worse = pairs.judge(PARENT, [x * 1.3 for x in PARENT], "lower", 0.25)
    assert worse["losses"] == 10 and worse["worse_than_bound"]
    assert not pairs.judge(PARENT, [x * 1.2 for x in PARENT], "lower", 0.25)[
        "worse_than_bound"
    ]
