"""treedim benchmark: closed-loop workloads, answer checks, JSON result.

    python3 perfbench/run.py --workload all            # every workload, every metric
    python3 perfbench/run.py --workload spine --seed 7 --seconds 40 --trace 1

One caller runs the models of a workload in order, single process and
single thread, and sends the next only when the previous one returned.
Each pass runs in a fresh interpreter (``worker.py``).  Passes repeat
until ``--seconds`` would be exceeded; timings are medians over passes.
With ``--trace 1`` the run instead reports per-layer metrics from one
traced pass, next to untraced passes of the same inputs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

WORKLOADS = ("lc_wide", "spine", "keystone")
DEFAULT_SEED = 20260801
ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_SAMPLES = 5
# Times are scaled to a host on which one calibration loop of worker.py
# takes this long; see README.md.
CALIBRATION_REF_S = 0.04
WORKER_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "wall_s": "s",
    "model_p50_s": "s",
    "model_p90_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker(workload: str, seed: int, *flags: str) -> dict:
    command = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), *flags]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _passes(workload: str, seed: int, budget_s: float) -> list[dict]:
    """Run passes until another one would likely end past the budget (at least one)."""
    start = time.perf_counter()
    costs: list[float] = []
    results: list[dict] = []
    while True:
        t0 = time.perf_counter()
        results.append(_worker(workload, seed))
        costs.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(costs) > budget_s:
            return results


def percentile(values: list[float], p: int) -> float:
    """p-th percentile, interpolated between the two nearest ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: the result object whose JSON form is the last output line."""
    budget = seconds / 2 if trace else seconds
    passes = _passes(workload, seed, budget)
    if trace:
        passes.append(_worker(workload, seed, "--traced"))
    probes = [
        _worker(workload, seed, "--setup-only")
        for _ in range(0 if trace else SETUP_SAMPLES - len(passes))
    ]
    errors = [e for p in passes for e in p["errors"]]
    attempted = sum(len(p["model_s"]) for p in passes)
    for error in errors[:10]:
        print(f"wrong: {error}", file=sys.stderr)
    calibration = [t for p in passes + probes for t in p["calibration_s"]]
    scale = CALIBRATION_REF_S / statistics.median(calibration)
    print(
        f"{workload}: {len(passes)} passes, {attempted} models run; "
        f"unscaled median wall {statistics.median(p['wall_s'] for p in passes):.4g} s, "
        f"scale {scale:.4g}",
        file=sys.stderr,
    )

    if trace:
        traced = passes[-1]
        layers = {
            name: [value * scale if unit == "s" else value, unit]
            for name, (value, unit) in traced["layers"].items()
        }
        untraced_wall = statistics.median(p["wall_s"] for p in passes[:-1])
        layers["trace.overhead_frac"] = [traced["wall_s"] / untraced_wall - 1, "ratio"]
        missing = [name for name in tracing.metric_names() if name not in layers]
        if missing:
            print(f"missing per-layer metrics: {', '.join(missing)}", file=sys.stderr)
        # Spans nest, so the self times never cover more than the wall time.
        consistent = layers["trace.unattributed_s"][0] >= -1e-6
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
    else:
        # A model's latency is its median over the passes.
        per_model = zip(*(p["model_s"] for p in passes))
        latency = [statistics.median(times) * scale for times in per_model]
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in passes) * scale,
            "model_p50_s": percentile(latency, 50),
            "model_p90_s": percentile(latency, 90),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
            "setup_s": statistics.median(p["setup_s"] for p in passes + probes) * scale,
        }
        metrics = {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in values.items()}
        consistent = True
        print(
            f"{workload}: {len(latency)} models timed, "
            f"{len(passes) + len(probes)} set-up samples",
            file=sys.stderr,
        )
    return {
        "correct": not errors and consistent,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": metrics,
    }


def _print_table(workload: str, result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"{workload:9} {name:40} {metric['value']:>14.6g} {metric['unit']}")
    frac = result["failed"] / result["attempted"]
    print(f"{workload:9} {'failed_frac':40} {frac:>14.6g} ratio")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "treedim" / "__init__.py").is_file():
        print(f"error: no treedim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    all_correct = True
    for workload in names:
        try:
            result = measure(workload, args.seed, args.seconds, bool(args.trace))
        except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        _print_table(workload, result)
        all_correct = all_correct and result["correct"]
    if args.workload != "all":
        print(json.dumps(result))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
