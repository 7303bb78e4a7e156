"""Tests of the benchmark's own code: inputs, span arithmetic, wrappers."""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import treedim  # noqa: E402
from treedim import decompose, iface, model, oracle, rank  # noqa: E402


def test_same_seed_gives_same_inputs():
    for name in run.WORKLOADS:
        assert workloads.make_inputs(name, 11) == workloads.make_inputs(name, 11)
    assert workloads.make_inputs("keystone", 11) != workloads.make_inputs("keystone", 12)


def test_keystone_is_the_acceptance_set_plus_the_reference_model():
    cases = workloads.make_inputs("keystone", 5)
    assert len(cases) == workloads.KEYSTONE_MODELS + 1
    assert (cases[-1].text, cases[-1].ds, cases[-1].de) == (workloads.M1_TEXT, 45, 43)
    assert [c.text for c in cases] == [c.text for c in workloads.make_inputs("keystone", 6)]


def test_wrong_answers_and_exceptions_count_as_failures():
    good = workloads.Case("lc", workloads.lc_text(2, (2, 2, 2)), 0, 7, 7, oracle=True)
    wrong = workloads.Case("pinned", good.text, 0, 7, 6)
    broken = workloads.Case("broken", "var Z 2 latent\nedge Z Q\n", 0)
    result = workloads.run_pass([good, wrong, broken, good])
    assert len(result.model_s) == 4
    assert len(result.errors) == 2
    assert result.errors[0].startswith("pinned: de=7")
    assert result.errors[1].startswith("broken: ModelParseError")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_a_hand_built_span_tree():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and c [5, 7].
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    for now, step in [
        (0, "a"), (1, "b"), (2, "c"), (3, None), (4, None), (5, "c"), (7, None), (10, None)
    ]:
        clock.now = float(now)
        if step is None:
            tracer.exit()
        else:
            tracer.enter(step)
    assert tracer.self_s == {"a": 5.0, "b": 2.0, "c": 3.0}
    assert tracer.calls == {"a": 1, "b": 1, "c": 2}
    metrics = tracing.layer_metrics(tracer, 12.0, missing=[], specs=())
    assert metrics["trace.unattributed_s"] == (2.0, "s")


def _bindings():
    modules = (treedim, model, decompose, rank, oracle, iface)
    return {
        (module.__name__, name): value
        for module in modules
        for name, value in vars(module).items()
        if callable(value)
    } | {("TreeModel", name): value for name, value in vars(model.TreeModel).items()}


def test_traced_pass_restores_every_binding():
    before = _bindings()
    tracer = tracing.Tracer()
    cases = [workloads.Case("lc", workloads.lc_text(2, (2, 2, 2)), 3, 7, 7, oracle=True)]
    with tracing.traced(tracer) as missing:
        assert treedim.effective_dimension is not before[("treedim", "effective_dimension")]
        assert oracle.exact_rank is not rank.exact_rank
        result = workloads.run_pass(cases)
    assert result.errors == []
    assert missing == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    metrics = tracing.layer_metrics(tracer, result.wall_s, missing)
    assert set(metrics) == set(tracing.metric_names())
    # exact_rank is attributed by the module that binds it.
    assert metrics["rank.exact_rank.calls"][0] == 2
    assert metrics["oracle.exact_rank.calls"][0] == 1
    assert metrics["oracle.calls"][0] == 1
    assert metrics["rank.jacobian_rows"][0] == 2 * 7
    assert metrics["rank.useful_row_frac"][0] == 1.0
    assert metrics["oracle.jacobian_cols"][0] == 7
    assert metrics["trace.unattributed_s"][0] >= 0


def test_renamed_function_is_reported_missing():
    specs = tuple(
        (base, home, "lc_jacobian_renamed" if base == "rank.lc_jacobian_at" else path, every)
        for base, home, path, every in tracing.SPECS
    )
    tracer = tracing.Tracer()
    with tracing.traced(tracer, specs) as missing:
        result = workloads.run_pass([workloads.Case("lc", workloads.lc_text(2, (2, 2, 2)), 0, 7, 7)])
    assert result.errors == []
    assert missing == ["rank.lc_jacobian_at"]
    metrics = tracing.layer_metrics(tracer, result.wall_s, missing, specs)
    absent = set(tracing.metric_names()) - set(metrics)
    assert absent == {
        "rank.lc_jacobian_at.calls",
        "rank.lc_jacobian_at.self_s",
        "rank.jacobian_rows",
        "rank.entry_bits_max",
        "rank.useful_row_frac",
    }
    assert metrics["rank.exact_rank.calls"][0] == 2
    assert not hasattr(rank, "lc_jacobian_renamed")


def test_benchmark_json_lists_the_metrics_the_benchmark_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert per_layer == tracing.metric_names() + ["trace.overhead_frac"]
