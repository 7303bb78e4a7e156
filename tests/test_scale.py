"""Smoke test of the scale harness (``tools/scale.py``): every shape at
its smallest size, answers only, no timings asserted."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from treedim import RankPolicy, effective_dimension, parse_model

TOOL = Path(__file__).resolve().parents[1] / "tools" / "scale.py"
_SPEC = importlib.util.spec_from_file_location("scale", TOOL)
scale = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(scale)


def test_every_shape_gives_its_stated_dimensions_at_its_smallest_size():
    assert sorted(scale.SHAPES) == [
        "balanced_split", "binary_chain", "binary_leaves", "three_leaves",
        "wide_latent",
    ]
    for (small, *_), text, answers in scale.SHAPES.values():
        result = effective_dimension(parse_model(text(small)), RankPolicy(trials=3))
        found = (result.standard_dimension, result.effective_dimension)
        assert found == answers(small)


def test_a_run_checks_its_answers_in_a_fresh_interpreter():
    argv = [sys.executable, str(TOOL), "--shape", "wide_latent"]
    proc = subprocess.run(argv, capture_output=True, text=True, check=True)
    summary = json.loads(proc.stdout.splitlines()[-1])
    (run,) = summary["runs"]
    assert summary["ok"] and run["ok"]
    found = (run["shape"], run["size"], run["ds"], run["de"])
    assert found == ("wide_latent", 2, 17, 17)
    assert summary["size"] == "small"
