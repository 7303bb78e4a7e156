"""One pass of one workload in a fresh interpreter; prints one JSON line.

Started by ``run.py``: a fresh interpreter per pass means every pass pays
the import and set-up a user's process pays, and nothing one pass leaves
in memory can speed up the next.

    python3 perfbench/worker.py --workload W --seed N [--traced | --setup-only]
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# The loop is Gaussian elimination over Fractions, the kind of work treedim
# does.  It runs before and after each pass, and run.py scales the run's
# times by its median duration: a shared host that runs slower for a
# while slows both alike.
CALIBRATION_LOOPS = 5
CALIBRATION_SIZE = 12


def calibration_s() -> list[float]:
    """Durations of a few runs of a fixed loop: the host's current speed."""
    rng = random.Random(0)
    matrix = [
        [Fraction(rng.randint(1, 2**20), rng.randint(1, 2**20)) for _ in range(CALIBRATION_SIZE)]
        for _ in range(CALIBRATION_SIZE)
    ]
    durations = []
    for _ in range(CALIBRATION_LOOPS):
        start = time.perf_counter()
        for _ in range(3):
            rows = [row[:] for row in matrix]
            for col in range(CALIBRATION_SIZE):
                for r in range(col + 1, CALIBRATION_SIZE):
                    factor = rows[r][col] / rows[col][col]
                    rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
        durations.append(time.perf_counter() - start)
    return durations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--traced", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import workloads  # imports treedim: part of set-up

    cases = workloads.make_inputs(args.workload, args.seed)
    setup_s = time.perf_counter() - start
    if Path(workloads.treedim.__file__).resolve().parent != SRC / "treedim":
        print(f"error: treedim imported from {workloads.treedim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    calibration = calibration_s()
    out = {"setup_s": setup_s}
    if not args.setup_only:
        if args.traced:
            import tracing

            tracer = tracing.Tracer()
            with tracing.traced(tracer) as missing:
                result = workloads.run_pass(cases)
            out["layers"] = tracing.layer_metrics(tracer, result.wall_s, missing)
        else:
            result = workloads.run_pass(cases)
        calibration += calibration_s()
        out.update(
            wall_s=result.wall_s,
            model_s=result.model_s,
            errors=result.errors,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
    out["calibration_s"] = calibration
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
