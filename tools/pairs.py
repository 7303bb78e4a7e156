"""Alternating parent/change pairs of benchmark runs, judged by the claim rule.

    python3 tools/pairs.py --parent ../old --change . --workload keystone \
        --pairs 10 --seconds 10 [--seed 7]

Each pair runs the benchmark command of ``BENCHMARK.json`` once in each
checkout, the parent first in even pairs and the change first in odd
ones, and reads the JSON object on the run's last output line.  Per
end-to-end metric it prints both medians and quartiles, the pairs the
change wins (a tie counts for neither side), whether a gain claim holds
(at least 9 wins in 10, and a median gap wider than the parent's
interquartile range) and whether the change is worse than the parent by
more than the metric's ``bound``, read as a fraction of the parent's
median.  The last output line is one JSON object with all of it and
every run's value.
Standard library only; the checkouts are only read.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WIN_SHARE = 0.9


def judge(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The statistics of one metric over paired runs, ``parent[i]`` against
    ``change[i]``; ``better`` is ``"lower"`` or ``"higher"``."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (p - c) < 0 for p, c in zip(parent, change))
    quartiles = {}
    for side, values in (("parent", parent), ("change", change)):
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        quartiles[side] = {"q1": q1, "median": median, "q3": q3}
    base = quartiles["parent"]
    gain = sign * (base["median"] - quartiles["change"]["median"])
    iqr = base["q3"] - base["q1"]
    return {
        **quartiles,
        "pairs": len(parent),
        "wins": wins,
        "losses": losses,
        "change_frac": -sign * gain / base["median"] if base["median"] else 0.0,
        "claim_holds": wins >= WIN_SHARE * len(parent) and gain > iqr,
        "worse_than_bound": -gain > bound * abs(base["median"]),
    }


def _run(command: list[str], checkout: Path, workload: str, seconds: float, seed):
    """One benchmark run in ``checkout``: the JSON object of its last line."""
    argv = [*command, "--workload", workload, "--seconds", str(seconds)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    if argv[0] in ("python", "python3"):
        argv[0] = sys.executable
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if not lines:
        why = f"no output (exit {proc.returncode}): {proc.stderr[-500:]}"
        sys.exit(f"error: {checkout}: {why}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--seed", type=int)
    args = parser.parse_args(argv)
    if args.pairs < 2 or args.seconds <= 0:
        parser.error("--pairs must be at least 2 and --seconds positive")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            runs[side].append(
                _run(spec["command"], checkout, args.workload, args.seconds, args.seed)
            )
        print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)
    metrics = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in runs}
        verdict = judge(
            values["parent"], values["change"], metric["better"], metric["bound"]
        )
        metrics[name] = {**verdict, "values": values}
        sides = "  ".join(
            f"{side} {q['median']:.6g} [{q['q1']:.6g}, {q['q3']:.6g}]"
            for side, q in ((s, verdict[s]) for s in ("parent", "change"))
        )
        claim = "holds" if verdict["claim_holds"] else "fails"
        bound = "WORSE than bound" if verdict["worse_than_bound"] else "within bound"
        print(
            f"{name:12} {sides}  {verdict['change_frac']:+.1%}  "
            f"wins {verdict['wins']}/{verdict['pairs']}  claim {claim}  {bound}"
        )
    failed = {s: sum(r["failed"] for r in runs[s]) for s in runs}
    correct = {s: all(r["correct"] for r in runs[s]) for s in runs}
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "failed": failed,
        "correct": correct,
        "metrics": metrics,
    }))
    return 0 if all(correct.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
