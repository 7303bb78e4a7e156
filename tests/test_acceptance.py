"""Acceptance suite: one test per criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
are produced.  The random-model keystone set is shared between the
oracle-agreement and regularization criteria.
"""

from __future__ import annotations

import functools
import math
import random
import time
from pathlib import Path

from support import (
    collapsed_hierarchy,
    latent_class_model,
    jacobian_weights,
    random_hlc_model,
    random_tree_model,
    reference_observed_joint_jacobian,
    reference_oracle_effective_dimension,
    structural_signature,
    two_branch_hierarchy,
)
from treedim import (
    RankPolicy,
    ScoreInput,
    bic,
    bice,
    effective_dimension,
    oracle_effective_dimension,
    run,
)
from treedim.decompose import (
    DecompositionLedger,
    LatentEdgeCorrection,
    LcComponent,
    combine,
)
from treedim.model import check_regular, regularize, standard_dimension
from treedim.oracle import observed_joint_jacobian, sample_full_point
from treedim.rank import PRIME, exact_rank, lc_rank_trials

FIXTURES = Path(__file__).parent / "fixtures"

KEYSTONE_SEED = 20260801
KEYSTONE_COUNT = 100
# Second, larger keystone set: up to 9 variables and cardinality 4.
WIDE_KEYSTONE_SEED = 20261017
WIDE_KEYSTONE_COUNT = 40
# Third keystone set: trees beyond the oracle's former 4096-state limit.
LARGE_KEYSTONE_SEED = 20261018
LARGE_KEYSTONE_COUNT = 100
# Fourth keystone set: hierarchical latent class (HLC) shaped trees.
HLC_KEYSTONE_SEED = 20261019
HLC_KEYSTONE_COUNT = 50


@functools.cache
def keystone_models():
    rng = random.Random(KEYSTONE_SEED)
    return [
        random_tree_model(rng, max_vars=7, max_latent=3) for _ in range(KEYSTONE_COUNT)
    ]


@functools.cache
def wide_keystone_models():
    rng = random.Random(WIDE_KEYSTONE_SEED)
    return [
        random_tree_model(rng, max_vars=9, max_latent=3, max_card=4)
        for _ in range(WIDE_KEYSTONE_COUNT)
    ]


@functools.cache
def large_keystone_models():
    rng = random.Random(LARGE_KEYSTONE_SEED)
    models = []
    while len(models) < LARGE_KEYSTONE_COUNT:
        model = random_tree_model(rng, max_vars=16, max_latent=6, max_card=3)
        states = math.prod(v.cardinality for v in model.observed_variables)
        if states > 4096 and standard_dimension(model) <= 256:
            models.append(model)
    return models


@functools.cache
def hlc_keystone_models():
    rng = random.Random(HLC_KEYSTONE_SEED)
    models = []
    while len(models) < HLC_KEYSTONE_COUNT:
        model = random_hlc_model(rng)
        if standard_dimension(model) <= 160:
            models.append(model)
    return models


KEYSTONE_SETS = {
    "main": keystone_models,
    "wide": wide_keystone_models,
    "large": large_keystone_models,
    "hlc": hlc_keystone_models,
}


@functools.cache
def keystone_oracle(name: str, index: int) -> int:
    model = KEYSTONE_SETS[name]()[index]
    return oracle_effective_dimension(model, trials=1, seed=index)


def keystone_mismatches(name: str) -> list[tuple[int, int, int]]:
    """(index, decomposition de, oracle de) of every disagreeing model."""
    mismatches = []
    for i, model in enumerate(KEYSTONE_SETS[name]()):
        de = effective_dimension(model, RankPolicy(trials=2, seed=i)).effective_dimension
        if de != keystone_oracle(name, i):
            mismatches.append((i, de, keystone_oracle(name, i)))
    return mismatches


def _report(capsys, number: int, ok: bool, detail: str) -> None:
    # bypass capture so the line lands in plain pytest output too
    with capsys.disabled():
        print(f"acceptance {number}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_reference_dimensions(capsys):
    start = time.perf_counter()
    r1 = effective_dimension(two_branch_hierarchy())
    r2 = effective_dimension(collapsed_hierarchy())
    elapsed = time.perf_counter() - start
    ok = (
        (r1.standard_dimension, r1.effective_dimension) == (45, 43)
        and (r2.standard_dimension, r2.effective_dimension) == (44, 44)
        and elapsed < 10.0
    )
    _report(
        capsys,
        1,
        ok,
        f"ds/de = {r1.standard_dimension}/{r1.effective_dimension} and "
        f"{r2.standard_dimension}/{r2.effective_dimension} in {elapsed:.2f}s",
    )
    assert ok


def test_criterion_2_combination_arithmetic(capsys):
    ledger = DecompositionLedger(
        lc_components=tuple(
            LcComponent(i, 2, ((10 + i, 2),), (False,)) for i in range(5)
        ),
        latent_edge_corrections=(
            LatentEdgeCorrection((0, 1), 5 * 3 - 1),
            LatentEdgeCorrection((1, 2), 3 * 6 - 1),
            LatentEdgeCorrection((2, 3), 6 * 3 - 1),
            LatentEdgeCorrection((3, 4), 3 * 5 - 1),
        ),
        observed_cut_corrections=(),
        latent_free_parts=(),
        pruned_latent_leaves=(),
        regularization_log=(),
    )
    combined = combine((26, 23, 34, 23, 17), ledger)
    parameter_count = 5 + 6 * 2 + 6 * 2 + 6 * 2 + 3 * 4 + 5 * 5 + 5 + 3 * 4 + 5 * 2 + 5
    ok = combined == 61 and parameter_count == 110
    _report(
        capsys, 2, ok, f"combined de = {combined}, parameter count = {parameter_count}"
    )
    assert ok


def test_criterion_3_oracle_keystone(capsys):
    start = time.perf_counter()
    models = keystone_models()
    mismatches = keystone_mismatches("main")
    elapsed = time.perf_counter() - start
    ok = not mismatches and len(models) >= 100 and elapsed < 300.0
    _report(
        capsys,
        3,
        ok,
        f"{len(models)} random models, {len(mismatches)} mismatches "
        f"in {elapsed:.1f}s",
    )
    assert ok, mismatches


def test_criterion_3b_wide_oracle_keystone(capsys):
    start = time.perf_counter()
    mismatches = keystone_mismatches("wide")
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 300.0
    _report(
        capsys,
        3,
        ok,
        f"{len(wide_keystone_models())} wider random models, "
        f"{len(mismatches)} mismatches in {elapsed:.1f}s",
    )
    assert ok, mismatches


def test_criterion_3c_oracle_keystone_beyond_the_old_state_limit(capsys):
    models = large_keystone_models()
    latent_edges = observed_internal = 0
    for model in models:
        latent = {v.id for v in model.latent_variables}
        latent_edges += sum(a in latent and b in latent for a, b in model.edges)
        observed_internal += sum(
            model.degree(v.id) > 1 for v in model.observed_variables
        )
    assert latent_edges and observed_internal
    start = time.perf_counter()
    mismatches = keystone_mismatches("large")
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 300.0
    _report(
        capsys,
        3,
        ok,
        f"{len(models)} random models over 4096 observed states, "
        f"{len(mismatches)} mismatches in {elapsed:.1f}s",
    )
    assert ok, mismatches


def test_criterion_3d_oracle_rows_match_the_reference_passes(capsys):
    # Every keystone model, at one random point: the oracle's count of
    # random functionals, and the indicator functionals (the full Jacobian).
    start = time.perf_counter()
    mismatches = []
    for i, model in enumerate(keystone_models()):
        rng = random.Random(i)
        point = sample_full_point(model, rng)
        observed = model.observed_variables
        states = math.prod(v.cardinality for v in observed)
        k = min(standard_dimension(model), states - 1)
        random_weights = [
            [[rng.randrange(PRIME) for _ in range(k)] for _ in range(v.cardinality)]
            for v in observed
        ]
        indicators = jacobian_weights(observed)
        for weights in (random_weights, indicators):
            if observed_joint_jacobian(
                model, point, weights
            ) != reference_observed_joint_jacobian(model, point, weights):
                mismatches.append((i, weights is indicators))
    elapsed = time.perf_counter() - start
    ok = not mismatches
    _report(
        capsys,
        3,
        ok,
        f"{len(keystone_models())} random models, packed rows equal the "
        f"reference rows ({len(mismatches)} mismatches) in {elapsed:.1f}s",
    )
    assert ok, mismatches


def test_criterion_3e_hlc_oracle_keystone(capsys):
    # Zhang & Kocka (JAIR 2004): de of an HLC model is the sum of its
    # latent-class components' dimensions minus one correction per
    # latent-latent edge.  The set must keep exercising that, regularization
    # and rank-deficient components, whatever the generator draws.
    start = time.perf_counter()
    models = hlc_keystone_models()
    mismatches = []
    two_edges = regularized = deficient = split = 0
    for i, model in enumerate(models):
        result = effective_dimension(model, RankPolicy(trials=2, seed=i))
        de, oracle_de = result.effective_dimension, keystone_oracle("hlc", i)
        if de != oracle_de:
            mismatches.append((i, de, oracle_de))
        ledger = result.ledger
        two_edges += len(ledger.latent_edge_corrections) >= 2
        regularized += bool(ledger.regularization_log)
        split += bool(ledger.observed_cut_corrections)
        deficient += any(
            de < min(c.standard_dimension(), math.prod(k for _, k in c.neighbors) - 1)
            for c, de in zip(ledger.lc_components, result.component_dimensions)
        )
    elapsed = time.perf_counter() - start
    floors = 2 * two_edges >= len(models) and regularized and deficient and split
    ok = not mismatches and floors and elapsed < 300.0
    _report(
        capsys,
        3,
        ok,
        f"{len(models)} HLC models ({two_edges} with two or more latent-edge "
        f"corrections, {regularized} regularized, {deficient} deficient, "
        f"{split} split), {len(mismatches)} mismatches in {elapsed:.1f}s",
    )
    assert ok, mismatches


def test_criterion_3f_oracle_equals_the_reference_oracle(capsys):
    # The oracle ranks only the live parameters' columns of fewer
    # functionals; the reference ranks all of them, as the oracle once did.
    start = time.perf_counter()
    mismatches = []
    for name, models in KEYSTONE_SETS.items():
        for i, model in enumerate(models()):
            expected = reference_oracle_effective_dimension(model, trials=1, seed=i)
            if keystone_oracle(name, i) != expected:
                mismatches.append((name, i, keystone_oracle(name, i), expected))
    elapsed = time.perf_counter() - start
    ok = not mismatches
    count = sum(len(models()) for models in KEYSTONE_SETS.values())
    _report(
        capsys,
        3,
        ok,
        f"{count} keystone models, oracle equals the reference oracle "
        f"({len(mismatches)} mismatches) in {elapsed:.1f}s",
    )
    assert ok, mismatches


def test_criterion_4_direct_oracle_on_reference_model(capsys):
    start = time.perf_counter()
    oracle_de = oracle_effective_dimension(two_branch_hierarchy(), trials=1)
    elapsed = time.perf_counter() - start
    ok = oracle_de == 43 and elapsed < 120.0
    _report(capsys, 4, ok, f"oracle de = {oracle_de} in {elapsed:.1f}s")
    assert ok


def test_criterion_5_two_observed_sweep(capsys):
    # Oracle-verified discrepancy set: the rank-surface term of the
    # closed form is wrong exactly when the latent cardinality exceeds
    # both observed cardinalities.
    expected_formula_mismatches = {
        (3, 2, 2),
        (4, 2, 2),
        (4, 2, 3),
        (4, 3, 2),
        (4, 3, 3),
    }
    lc_vs_oracle_failures = []
    formula_mismatches = set()
    for latent_card in range(1, 5):
        for y1 in range(2, 6):
            for y2 in range(2, 6):
                seed = latent_card * 100 + y1 * 10 + y2
                component = LcComponent(
                    0, latent_card, ((1, y1), (2, y2)), (False, False)
                )
                lc = max(lc_rank_trials(component, trials=2, seed=seed))
                oracle_de = oracle_effective_dimension(
                    latent_class_model(latent_card, (y1, y2)), trials=1, seed=seed
                )
                if lc != oracle_de:
                    lc_vs_oracle_failures.append((latent_card, y1, y2, lc, oracle_de))
                closed_form = min(
                    component.standard_dimension(),
                    y1 * y2 - 1,
                    latent_card * (y1 + y2 - latent_card) - 1,
                )
                if closed_form != oracle_de:
                    formula_mismatches.add((latent_card, y1, y2))
                    with capsys.disabled():
                        print(
                            f"  closed-form discrepancy at latent={latent_card} "
                            f"leaves=({y1},{y2}): formula {closed_form}, "
                            f"true {oracle_de}"
                        )
    ok = (
        not lc_vs_oracle_failures
        and formula_mismatches == expected_formula_mismatches
    )
    _report(
        capsys,
        5,
        ok,
        f"64 cases agree with oracle, {len(formula_mismatches)} reported "
        "closed-form discrepancies",
    )
    assert ok, (lc_vs_oracle_failures, formula_mismatches)


def test_criterion_6_score_ordering(capsys):
    score_input = ScoreInput(loglik=-8000.0, sample_size=10000)
    prefers_smaller_standard = bic(score_input, 45) < bic(score_input, 44)
    prefers_smaller_effective = bice(score_input, 43) > bice(score_input, 44)
    ok = prefers_smaller_standard and prefers_smaller_effective
    _report(
        capsys,
        6,
        ok,
        "bic orders by parameter count, bice orders by effective dimension",
    )
    assert ok


def test_criterion_7_rank_engine_on_product_matrices(capsys):
    start = time.perf_counter()
    rng = random.Random(1234)
    failures = 0
    for _ in range(200):
        m = rng.randint(1, 12)
        n = rng.randint(1, 12)
        r = rng.randint(1, min(m, n))
        left = [[rng.randint(1, 10**6) for _ in range(r)] for _ in range(m)]
        right = [[rng.randint(1, 10**6) for _ in range(n)] for _ in range(r)]
        product = [
            [sum(left[i][k] * right[k][j] for k in range(r)) for j in range(n)]
            for i in range(m)
        ]
        if exact_rank(product) != r or exact_rank(list(zip(*product))) != r:
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 60.0
    _report(
        capsys, 7, ok, f"200 product matrices, {failures} failures in {elapsed:.1f}s"
    )
    assert ok


def test_criterion_8_regularization(capsys):
    regular, log = regularize(two_branch_hierarchy(root_cardinality=3))
    structure_ok = structural_signature(regular) == structural_signature(
        collapsed_hierarchy()
    ) and len(log) == 1

    idempotence_failures = 0
    dimension_failures = 0
    preservation_failures = 0
    changed = 0
    for i, model in enumerate(keystone_models()):
        reg, steps = regularize(model)
        again, more = regularize(reg)
        if again != reg or more != ():
            idempotence_failures += 1
        if standard_dimension(reg) > standard_dimension(model):
            dimension_failures += 1
        if check_regular(reg):
            idempotence_failures += 1
        if steps:
            changed += 1
            reg_de = oracle_effective_dimension(reg, trials=1, seed=i)
            if reg_de != keystone_oracle("main", i):
                preservation_failures += 1
    ok = (
        structure_ok
        and idempotence_failures == 0
        and dimension_failures == 0
        and preservation_failures == 0
    )
    _report(
        capsys,
        8,
        ok,
        f"structure match {structure_ok}, {changed} transformed models, "
        f"{preservation_failures} oracle deviations",
    )
    assert ok


def test_criterion_9_report_determinism(capsys):
    fixtures = sorted(FIXTURES.glob("*.model"))
    assert fixtures
    mismatched = []
    for path in fixtures:
        args = ["dims", str(path), "--report", "--seed", "7", "--trials", "3"]
        code_a = run(args)
        first = capsys.readouterr().out
        code_b = run(args)
        second = capsys.readouterr().out
        if first != second or code_a != 0 or code_b != 0:
            mismatched.append(path.name)
    ok = not mismatched
    _report(
        capsys,
        9,
        ok,
        f"{len(fixtures)} fixtures, byte-identical reports"
        + (f"; mismatched: {mismatched}" if mismatched else ""),
    )
    assert ok
