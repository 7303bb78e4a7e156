"""Workload inputs, the closed-loop pass over them and the answer checks.

Every input is model-file text, built from the workload seed alone, and
each model takes the path a user's model file takes: ``parse_model`` ->
``effective_dimension`` -> ``report_lines``, plus the brute-force oracle
on ``keystone``.  Calls go through the ``treedim`` package attributes, so
a traced pass sees the wrappers that ``tracing`` installs there.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Optional

import treedim

TRIALS = 2

SPINE_LATENTS = 1000
KEYSTONE_MODELS = 100
# keystone's random models are the acceptance suite's keystone set, drawn
# from this fixed seed.  When each workload seed drew its own models, the
# draw decided much of p50 (2.3 to 3.5 ms across ten seeds).  The workload
# seed drives every rank and oracle seed instead.
KEYSTONE_SEED = 20260801

# Reference hierarchy (fixture m1): ds 45, de 43.
M1_TEXT = """\
var X1 2 latent
var X2 3 latent
var X3 3 latent
var Y1 3 observed
var Y2 3 observed
var Y3 3 observed
var Y4 3 observed
var Y5 3 observed
var Y6 3 observed
edge X1 X2
edge X1 X3
edge X2 Y1
edge X2 Y2
edge X2 Y3
edge X3 Y4
edge X3 Y5
edge X3 Y6
"""

# (latent cardinality, leaf cardinalities, ds, de): two heavy components
# and two rank-deficient canaries.
LC_WIDE = (
    (4, (3,) * 6, 51, 51),
    (3, (2,) * 11, 35, 35),
    (6, (3,) * 3, 41, 26),
    (4, (2,) * 4, 19, 15),
)


@dataclass(frozen=True)
class Case:
    """One model of a pass with the answers it must produce."""

    label: str
    text: str
    seed: int
    ds: Optional[int] = None
    de: Optional[int] = None
    oracle: bool = False


def _var(name: str, card: int, observed: bool) -> str:
    return f"var {name} {card} {'observed' if observed else 'latent'}"


def lc_text(latent_card: int, leaf_cards) -> str:
    lines = [_var("Z", latent_card, False)]
    lines += [_var(f"Y{i}", card, True) for i, card in enumerate(leaf_cards)]
    lines += [f"edge Z Y{i}" for i in range(len(leaf_cards))]
    return "\n".join(lines) + "\n"


def spine_text(latents: int) -> str:
    """A chain of binary latents, each with two binary observed leaves."""
    lines = []
    for i in range(latents):
        lines += [_var(f"H{i}", 2, False), _var(f"A{i}", 2, True), _var(f"B{i}", 2, True)]
    for i in range(latents):
        if i:
            lines.append(f"edge H{i - 1} H{i}")
        lines += [f"edge H{i} A{i}", f"edge H{i} B{i}"]
    return "\n".join(lines) + "\n"


def random_model_text(rng: random.Random, max_vars: int = 7, max_latent: int = 3) -> str:
    """Random valid tree with cardinalities <= 3 and at most max_latent latents.

    Draws in the same order as the acceptance suite's random model builder.
    It is a copy so that an edit to the tests cannot change this workload.
    """
    n = rng.randint(1, max_vars)
    cards = []
    latent = []
    for _ in range(n):
        cards.append(rng.randint(1, 3) if rng.random() < 0.2 else rng.randint(2, 3))
        latent.append(rng.random() < 0.45)
    latent_idx = [i for i, flag in enumerate(latent) if flag]
    while len(latent_idx) > max_latent:
        latent[latent_idx.pop(rng.randrange(len(latent_idx)))] = False
    if all(latent):
        latent[rng.randrange(n)] = False
    lines = [_var(f"V{i}", cards[i], not latent[i]) for i in range(n)]
    lines += [f"edge V{rng.randrange(i)} V{i}" for i in range(1, n)]
    return "\n".join(lines) + "\n"


def make_inputs(workload: str, seed: int) -> list[Case]:
    """The models one pass of a workload runs, in order."""
    if workload == "lc_wide":
        return [
            Case(f"lc{c}x{len(cards)}", lc_text(c, cards), seed, ds, de)
            for c, cards, ds, de in LC_WIDE
        ]
    if workload == "spine":
        ds = 2 * SPINE_LATENTS - 1 + 4 * SPINE_LATENTS
        return [Case("spine", spine_text(SPINE_LATENTS), seed, ds, ds)]
    if workload == "keystone":
        rng = random.Random(KEYSTONE_SEED)
        cases = [
            Case(f"random{i}", random_model_text(rng), seed + i, oracle=True)
            for i in range(KEYSTONE_MODELS)
        ]
        return cases + [Case("m1", M1_TEXT, seed, 45, 43, oracle=True)]
    raise ValueError(f"unknown workload {workload!r}")


def _report_value(lines: list[str], key: str) -> int:
    prefix = key + "="
    for line in lines:
        if line.startswith(prefix):
            return int(line[len(prefix):])
    raise ValueError(f"report has no {key}= line")


def check_case(case: Case) -> Optional[str]:
    """Run one model end to end; return a description of a wrong answer."""
    model = treedim.parse_model(case.text)
    policy = treedim.RankPolicy(trials=TRIALS, seed=case.seed)
    result = treedim.effective_dimension(model, policy)
    lines = treedim.report_lines(model, result, case.seed, TRIALS)
    ds, de = _report_value(lines, "ds"), _report_value(lines, "de")
    if case.ds is not None and ds != case.ds:
        return f"{case.label}: ds={ds}, expected {case.ds}"
    if case.de is not None and de != case.de:
        return f"{case.label}: de={de}, expected {case.de}"
    if not 0 <= de <= ds:
        return f"{case.label}: de={de} outside [0, ds={ds}]"
    if case.oracle:
        oracle_de = treedim.oracle_effective_dimension(model, trials=1, seed=case.seed)
        if oracle_de != de:
            return f"{case.label}: decomposition de={de}, oracle de={oracle_de}"
    return None


@dataclass
class PassResult:
    wall_s: float
    model_s: list[float]
    errors: list[str]


def run_pass(cases: list[Case]) -> PassResult:
    """Run the cases in order, each only after the previous one returned.

    A wrong answer or an exception counts against its model and the pass
    goes on, so the failure share stays meaningful.
    """
    model_s = []
    errors = []
    start = time.perf_counter()
    for case in cases:
        t0 = time.perf_counter()
        try:
            problem = check_case(case)
        except Exception as exc:  # any failure of the program counts, never aborts
            problem = f"{case.label}: {type(exc).__name__}: {exc}"
        model_s.append(time.perf_counter() - t0)
        if problem is not None:
            errors.append(problem)
    return PassResult(time.perf_counter() - start, model_s, errors)
