"""Named large shapes that no benchmark workload covers, each timed in a
fresh interpreter and checked against its known dimensions.

    python3 tools/scale.py [--large] [--shape NAME]... [--src DIR]

A run builds the shape's model text at the chosen size, parses it and
times ``effective_dimension(model, RankPolicy(trials=3))``, the policy
``score`` uses, in a new interpreter with ``--src`` (default: this
checkout's ``src``) first on its path, so two checkouts can be compared
with the same shapes.  ``ds`` and ``de`` are checked against the values
the shape states.  Each shape runs once and prints one line in unscaled
seconds; the last output line is one JSON object with every run.  The
exit code is 1 if any answer is wrong.  The small sizes run in well
under a second; ``--large`` picks the sizes quoted in CHANGES.md.
Standard library only; nothing is written.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _lc(latent: int, leaves) -> str:
    lines = [f"var Z {latent} latent"]
    for i, card in enumerate(leaves):
        lines += [f"var Y{i} {card} observed", f"edge Z Y{i}"]
    return "\n".join(lines) + "\n"


def _chain(leaves) -> str:
    """Binary latents H0 - H1 - ..., latent i over ``leaves[i]`` binary leaves."""
    lines = []
    for i, count in enumerate(leaves):
        lines.append(f"var H{i} 2 latent")
        if i:
            lines.append(f"edge H{i - 1} H{i}")
        for j in range(count):
            lines += [f"var Y{i}_{j} 2 observed", f"edge H{i} Y{i}_{j}"]
    return "\n".join(lines) + "\n"


# name -> ((small size, large size), model text of a size, (ds, de) of a size).
# Two-class and binary latent-class dimensions are min(c(L + 1), 2**L) - 1
# over L binary leaves (Catalisano, Geramita & Gimigliano 2011; its one
# exception, c = 3 and L = 4, is no shape here).  At the large sizes,
# treedim.rank.certified_rank settles every component of every shape but
# three_leaves without a draw; that one times the rank path.
SHAPES = {
    # c = 2 over L binary leaves: ds = de = 2L + 1, 511 at L = 255.
    "binary_leaves": (
        (4, 255),
        lambda leaves: _lc(2, (2,) * leaves),
        lambda leaves: (2 * leaves + 1, 2 * leaves + 1),
    ),
    # c over 8 binary leaves: ds = 9c - 1 and de = min(9c, 256) - 1, so
    # 899 and 255 at c = 100: b = 255 rows over 899 columns.
    "wide_latent": (
        (2, 100),
        lambda c: _lc(c, (2,) * 8),
        lambda c: (9 * c - 1, min(9 * c, 256) - 1),
    ),
    # Two binary latents over a and a + 1 binary leaves: each component
    # has full rank, so ds = de = 4a + 5, 805 at a = 200.
    "binary_chain": (
        (3, 200),
        lambda a: _chain((a, a + 1)),
        lambda a: (4 * a + 5, 4 * a + 5),
    ),
    # c = 2k - 2 over three k-state leaves: no theorem in treedim settles it.
    # Its rank reaches b = n = c(3k - 2) - 1 (below k**3 - 1), which proves
    # it: ds = de = 59 at k = 4 and 307 at k = 8 (c = 14, 307 x 307 cells).
    "three_leaves": (
        (4, 8),
        lambda k: _lc(2 * k - 2, (k,) * 3),
        lambda k: ((2 * k - 2) * (3 * k - 2) - 1,) * 2,
    ),
    # c = k + 1 over three k-state leaves: only the balanced split settles
    # it, k | k | k with 3k >= 2c + 2 from k = 4, as the greedy one takes
    # two leaves in its first group.  ds = de = (k + 1)(3k - 2) - 1: 49 at
    # k = 4 and 197 at k = 8 (c = 9, 197 x 197 cells).
    "balanced_split": (
        (4, 8),
        lambda k: _lc(k + 1, (k,) * 3),
        lambda k: ((k + 1) * (3 * k - 2) - 1,) * 2,
    ),
}


def _worker(shape: str, size: int) -> None:
    """Time one shape in this interpreter; print its answers as JSON."""
    from treedim import RankPolicy, effective_dimension, parse_model

    model = parse_model(SHAPES[shape][1](size))
    start = time.perf_counter()
    result = effective_dimension(model, RankPolicy(trials=3))
    seconds = time.perf_counter() - start
    ds, de = result.standard_dimension, result.effective_dimension
    print(json.dumps({"ds": ds, "de": de, "seconds": seconds}))


def _run(shape: str, size: int, src: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, __file__, "--worker", shape, str(size)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"error: {shape} at {size}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--large", action="store_true", help="the large sizes")
    parser.add_argument("--shape", action="append", choices=sorted(SHAPES))
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--worker", nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        _worker(args.worker[0], int(args.worker[1]))
        return 0
    runs, ok = [], True
    for shape in args.shape or SHAPES:
        sizes, _, answers = SHAPES[shape]
        size = sizes[args.large]
        found = _run(shape, size, args.src.resolve())
        dims = (found["ds"], found["de"])
        right = dims == answers(size)
        ok &= right
        verdict = "ok" if right else f"WRONG, expected (ds, de) = {answers(size)}"
        print(
            f"{shape:14} size {size:4}  (ds, de) = {dims}  "
            f"{verdict}  {found['seconds']:.3f} s"
        )
        runs.append({"shape": shape, "size": size, **found, "ok": right})
    size = "large" if args.large else "small"
    print(json.dumps({"size": size, "ok": ok, "runs": runs}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
