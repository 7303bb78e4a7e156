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
    flattening_bound,
    glued_model,
    latent_class_model,
    jacobian_weights,
    random_hlc_model,
    random_tree_model,
    reference_observed_joint_jacobian,
    reference_oracle_effective_dimension,
    reference_trial_ranks,
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
    LcComponent,
    Term,
    combine,
    decompose_hlc,
    prune_latent_leaves,
)
from treedim.model import check_regular, regularize, standard_dimension
from treedim.oracle import observed_joint_jacobian, sample_full_point
from treedim import rank
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
# Fifth keystone set: HLC trees past the oracle's former 256-parameter cap.
WIDE_HLC_KEYSTONE_SEED = 20261023
WIDE_HLC_KEYSTONE_COUNT = 5
# Sixth keystone set: HLC pieces glued at observed variables into one model.
GLUED_KEYSTONE_SEED = 20261020
GLUED_PIECES = 50


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


@functools.cache
def wide_hlc_keystone_models():
    rng = random.Random(WIDE_HLC_KEYSTONE_SEED)
    models = []
    while len(models) < WIDE_HLC_KEYSTONE_COUNT:
        model = random_hlc_model(rng, latents=(8, 20), max_card=6)
        if 256 < standard_dimension(model) <= 400:
            models.append(model)
    return models


KEYSTONE_SETS = {
    "main": keystone_models,
    "wide": wide_keystone_models,
    "large": large_keystone_models,
    "hlc": hlc_keystone_models,
}


@functools.cache
def keystone_signatures() -> frozenset:
    """(latent cardinality, sorted neighbor cardinalities) of every
    component with c >= 2 in the keystone sets, after prune and regularize
    as the pipeline ranks them."""
    signatures = set()
    for models in [*KEYSTONE_SETS.values(), wide_hlc_keystone_models]:
        for model in models():
            regular, _ = regularize(prune_latent_leaves(model)[0])
            signatures.update(
                (c.latent_cardinality, tuple(sorted(k for _, k in c.neighbors)))
                for c in decompose_hlc(regular)[0]
                if c.latent_cardinality >= 2
            )
    return frozenset(signatures)


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
            LcComponent(i, 2, ((10 + i, 2),)) for i in range(5)
        ),
        latent_edge_corrections=(
            Term((0, 1), 5 * 3 - 1),
            Term((1, 2), 3 * 6 - 1),
            Term((2, 3), 6 * 3 - 1),
            Term((3, 4), 3 * 5 - 1),
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
            len(model.neighbors(v.id)) > 1 for v in model.observed_variables
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
        indicators = jacobian_weights([v.cardinality for v in observed])
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


def _hlc_keystone(models, oracle_de):
    """HLC models checked against ``oracle_de(index)``: the mismatches as
    (index, decomposition de, oracle de), whether the coverage floors hold,
    and the coverage counts as text."""
    mismatches = []
    two_edges = regularized = deficient = split = 0
    for i, model in enumerate(models):
        result = effective_dimension(model, RankPolicy(trials=2, seed=i))
        de, expected = result.effective_dimension, oracle_de(i)
        if de != expected:
            mismatches.append((i, de, expected))
        ledger = result.ledger
        two_edges += len(ledger.latent_edge_corrections) >= 2
        regularized += bool(ledger.regularization_log)
        split += bool(ledger.observed_cut_corrections)
        deficient += any(
            de
            < min(standard_dimension(c.star), math.prod(k for _, k in c.neighbors) - 1)
            for c, de in zip(ledger.lc_components, result.component_dimensions)
        )
    floors = 2 * two_edges >= len(models) and regularized and deficient and split
    detail = (
        f"{two_edges} with two or more latent-edge corrections, {regularized} "
        f"regularized, {deficient} deficient, {split} split"
    )
    return mismatches, floors, detail


def test_criterion_3e_hlc_oracle_keystone(capsys):
    # Zhang & Kocka (JAIR 2004): de of an HLC model is the sum of its
    # latent-class components' dimensions minus one correction per
    # latent-latent edge.  The set must keep exercising that, regularization
    # and rank-deficient components, whatever the generator draws.
    start = time.perf_counter()
    models = hlc_keystone_models()
    oracle_de = functools.partial(keystone_oracle, "hlc")
    mismatches, floors, detail = _hlc_keystone(models, oracle_de)
    elapsed = time.perf_counter() - start
    ok = not mismatches and floors and elapsed < 300.0
    _report(
        capsys,
        3,
        ok,
        f"{len(models)} HLC models ({detail}), {len(mismatches)} mismatches "
        f"in {elapsed:.1f}s",
    )
    assert ok, mismatches


def test_criterion_3g_hlc_oracle_keystone_past_the_old_parameter_cap(capsys):
    # The oracle's cost is k rows over the point's entries, bounded by
    # rank.CELL_LIMIT, so HLC models with ds over 256 are checked too.
    start = time.perf_counter()
    models = wide_hlc_keystone_models()

    def oracle_de(i):
        return oracle_effective_dimension(models[i], trials=1, seed=i)

    mismatches, floors, detail = _hlc_keystone(models, oracle_de)
    elapsed = time.perf_counter() - start
    sizes = sorted(standard_dimension(model) for model in models)
    ok = not mismatches and floors and elapsed < 300.0
    _report(
        capsys,
        3,
        ok,
        f"{len(models)} HLC models of ds {sizes[0]}-{sizes[-1]} ({detail}), "
        f"{len(mismatches)} mismatches in {elapsed:.1f}s",
    )
    assert ok, mismatches


def test_criterion_3h_glued_keystone_past_the_oracle_reach(capsys):
    # Identifying an observed variable of cardinality r across d pieces
    # subtracts (d - 1)(r - 1) from the summed dimensions (the observed-cut
    # step), so the oracle checks a model of ds about 3,500, far past its
    # own reach, one piece at a time; the pipeline never sees the pieces.
    start = time.perf_counter()
    rng = random.Random(GLUED_KEYSTONE_SEED)
    pieces = [random_hlc_model(rng, latents=(2, 8)) for _ in range(GLUED_PIECES)]
    model, shared = glued_model(pieces, rng)
    cut = sum((d - 1) * (model.variable(v).cardinality - 1) for v, d in shared.items())
    oracle_de = sum(
        oracle_effective_dimension(piece, trials=1, seed=i)
        for i, piece in enumerate(pieces)
    )
    result = effective_dimension(model, RankPolicy(trials=2))
    ds = sum(standard_dimension(piece) for piece in pieces) - cut
    ledger = result.ledger
    deficient = sum(
        de < min(standard_dimension(c.star), math.prod(k for _, k in c.neighbors) - 1)
        for c, de in zip(ledger.lc_components, result.component_dimensions)
    )
    floors = {
        "shared by three or more pieces": sum(d >= 3 for d in shared.values()),
        "shared and internal to a piece": sum(
            len(model.neighbors(v)) > d for v, d in shared.items()
        ),
        "pieces that regularize": sum(bool(regularize(p)[1]) for p in pieces),
        "deficient components": deficient,
    }
    elapsed = time.perf_counter() - start
    ok = (
        result.effective_dimension == oracle_de - cut
        and result.standard_dimension == ds
        and all(floors.values())
        and elapsed < 60.0
    )
    _report(
        capsys,
        3,
        ok,
        f"{len(pieces)} glued HLC pieces, ds {result.standard_dimension}, de "
        f"{result.effective_dimension} vs {oracle_de} - {cut} from the oracle; "
        + ", ".join(f"{count} {what}" for what, count in floors.items())
        + f", in {elapsed:.1f}s",
    )
    assert ok, (result.effective_dimension, oracle_de - cut, floors)


def test_criterion_3i_lc_ranks_within_the_flattening_bound(capsys):
    # A latent-class component's joint, flattened along any split of its
    # neighbors, is a matrix of rank at most c, so its dimension is at most
    # support.flattening_bound, a bound that shares no code with the engines.
    # Every distinct signature in the keystone sets is checked against it,
    # after prune and regularize as the pipeline ranks them.
    start = time.perf_counter()
    signatures = keystone_signatures()
    over, deficient, proven = [], 0, 0
    for card, cards in sorted(signatures):
        component = LcComponent(0, card, tuple(enumerate(cards)))
        b = min(standard_dimension(component.star), math.prod(cards) - 1)
        bound = flattening_bound(card, cards)
        de = max(lc_rank_trials(component, trials=2))
        if de > min(b, bound):
            over.append((card, cards, de, b, bound))
        deficient += de < b
        proven += de == bound < b
    elapsed = time.perf_counter() - start
    ok = not over and len(signatures) >= 100 and proven and elapsed < 60.0
    _report(
        capsys,
        3,
        ok,
        f"{len(signatures)} keystone signatures with c >= 2 within the flattening "
        f"bound; {deficient} deficient, {proven} of them proven by it, in "
        f"{elapsed:.1f}s",
    )
    assert ok, over


# The best trial of every keystone and lc_wide signature of at least 2**6
# Jacobian cells, at trials=2 and seed=card, when latent-class trials ranked
# in GF(2**61 - 1) after one GF(2**31 - 1) proof.  Both trials equalled it.
LARGE_SIGNATURE_RANKS = {
    (2, (1, 1, 3, 3)): 7, (2, (1, 3, 3)): 7, (2, (2, 2, 2, 2)): 9,
    (2, (2, 2, 2, 2, 3)): 13, (2, (2, 2, 2, 3)): 11, (2, (2, 2, 2, 4)): 13,
    (2, (2, 2, 3)): 9, (2, (2, 2, 3, 3)): 13, (2, (2, 2, 3, 3, 3)): 17,
    (2, (2, 2, 3, 3, 3, 3)): 21, (2, (2, 2, 3, 4)): 15, (2, (2, 2, 4)): 11,
    (2, (2, 2, 5)): 13, (2, (2, 3, 3)): 11, (2, (2, 3, 3, 3)): 15,
    (2, (2, 3, 3, 3, 3)): 19, (2, (2, 3, 3, 3, 3, 4)): 25, (2, (2, 3, 3, 3, 4)): 21,
    (2, (2, 3, 3, 4)): 17, (2, (2, 3, 4)): 13, (2, (3, 3)): 7, (2, (3, 3, 3)): 13,
    (2, (3, 3, 3, 3)): 17, (2, (3, 3, 3, 3, 3)): 21, (2, (3, 3, 3, 4)): 19,
    (2, (3, 3, 4)): 15, (2, (3, 4)): 9, (2, (3, 4, 5)): 19, (2, (4, 4)): 11,
    (3, (1, 3, 3)): 8, (3, (2, 2, 2)): 7, (3, (2, 2, 2, 2)): 13,
    (3, (2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2)): 35, (3, (2, 2, 2, 3)): 17,
    (3, (2, 2, 2, 3, 3)): 23, (3, (2, 2, 2, 4)): 20, (3, (2, 2, 3)): 11,
    (3, (2, 2, 3, 3)): 20, (3, (2, 2, 3, 4)): 23, (3, (2, 2, 4)): 14,
    (3, (2, 2, 4, 4)): 26, (3, (2, 3, 3)): 17, (3, (2, 3, 3, 3)): 23,
    (3, (2, 3, 3, 3, 3)): 29, (3, (2, 3, 3, 4)): 26, (3, (2, 3, 4)): 20,
    (3, (2, 4, 4)): 23, (3, (2, 4, 5, 6)): 41, (3, (3, 3, 3)): 20,
    (3, (3, 3, 3, 3)): 26, (3, (3, 3, 3, 4)): 29, (3, (3, 3, 3, 6)): 35,
    (3, (3, 3, 4)): 23, (3, (3, 3, 4, 5)): 35, (3, (3, 4, 4)): 26,
    (3, (3, 4, 4, 5)): 38, (3, (3, 4, 5)): 29, (4, (2, 2, 2)): 7, (4, (2, 2, 2, 2)): 15,
    (4, (2, 2, 2, 3)): 23, (4, (2, 2, 2, 4)): 27, (4, (2, 2, 3)): 11,
    (4, (2, 2, 3, 3)): 27, (4, (2, 2, 3, 4)): 31, (4, (2, 2, 4)): 15,
    (4, (2, 2, 4, 4)): 35, (4, (2, 3, 3)): 17, (4, (2, 3, 3, 3)): 31,
    (4, (2, 3, 3, 4)): 35, (4, (2, 3, 3, 5)): 39, (4, (2, 3, 4)): 23,
    (4, (2, 3, 5)): 27, (4, (2, 3, 5, 5)): 47, (4, (2, 3, 6)): 31, (4, (2, 4, 4)): 31,
    (4, (2, 4, 5, 6)): 55, (4, (3, 3, 3)): 25, (4, (3, 3, 3, 3)): 35,
    (4, (3, 3, 3, 3, 3, 3)): 51, (4, (3, 3, 3, 5)): 43, (4, (3, 3, 4)): 31,
    (4, (3, 3, 5)): 35, (4, (3, 4, 4)): 35, (5, (2, 2, 3, 3)): 33,
    (5, (2, 2, 3, 3, 4)): 49, (5, (2, 2, 3, 6)): 49, (5, (2, 3, 3, 3)): 39,
    (5, (2, 3, 4)): 23, (5, (2, 3, 4, 5)): 54, (5, (2, 3, 5)): 29, (5, (2, 4, 6)): 44,
    (5, (3, 3, 3, 3)): 44, (5, (3, 3, 3, 4)): 49, (5, (3, 3, 3, 5, 6)): 79,
    (5, (3, 3, 4, 6)): 64, (5, (3, 3, 6)): 49, (5, (4, 5, 5)): 59,
    (6, (2, 2, 3, 5)): 53, (6, (2, 3, 3)): 17, (6, (2, 3, 3, 3)): 47,
    (6, (2, 3, 3, 4)): 53, (6, (2, 3, 5)): 29, (6, (2, 5, 5)): 49, (6, (3, 3, 3)): 26,
    (6, (3, 3, 4)): 35,
}


def test_criterion_3j_large_signature_trials_equal_their_pin(capsys):
    # Every keystone and lc_wide signature of at least 2**6 Jacobian cells is
    # certified by a theorem or proven by a first trial that reaches b, else
    # runs every trial.  Each gives the trial tuple pinned above, and each
    # uncertified one equals the plain trials of support.reference_trial_ranks.
    start = time.perf_counter()
    lc_wide = {(4, (3,) * 6), (3, (2,) * 11), (6, (3,) * 3), (4, (2,) * 4)}
    found, differ, deficient = {}, [], 0
    for card, cards in sorted(keystone_signatures() | lc_wide):
        component = LcComponent(0, card, tuple(enumerate(cards)))
        n = standard_dimension(component.star)
        b = min(n, math.prod(cards) - 1)
        if b * n < rank._PROOF_CELLS:
            continue
        trials = found[card, cards] = lc_rank_trials(component, trials=2, seed=card)
        plain = rank.certified_rank(card, cards) is None
        if plain and trials != reference_trial_ranks(component, 2, card):
            differ.append((card, cards, trials))
        deficient += max(trials) < b
    pinned = {key: (r, r) for key, r in LARGE_SIGNATURE_RANKS.items()}
    differ += [(key, t) for key, t in found.items() if pinned.get(key) != t]
    elapsed = time.perf_counter() - start
    ok = not differ and found.keys() == pinned.keys() and deficient and elapsed < 30.0
    _report(
        capsys,
        3,
        ok,
        f"{len(found)} signatures of >= 2**6 cells give their pinned trials, "
        f"{deficient} of them deficient, in {elapsed:.1f}s",
    )
    assert ok, differ


def test_criterion_3k_certificates_equal_the_rank_path(capsys):
    # rank.certified_rank settles a component by a theorem.  On every keystone
    # signature it certifies, at any size, it equals the rank path before it
    # had certificates, two plain trials.
    start = time.perf_counter()
    signatures = keystone_signatures()
    certified, differ = 0, []
    for card, cards in sorted(signatures):
        found = rank.certified_rank(card, cards)
        if found is None:
            continue
        certified += 1
        component = LcComponent(0, card, tuple(enumerate(cards)))
        if found != max(reference_trial_ranks(component, 2, card)):
            differ.append((card, cards, found))
    elapsed = time.perf_counter() - start
    ok = not differ and certified >= 70 and elapsed < 30.0
    _report(
        capsys,
        3,
        ok,
        f"{certified} of {len(signatures)} keystone signatures certified, each "
        f"equal to the rank path, in {elapsed:.1f}s",
    )
    assert ok, differ


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
                component = LcComponent(0, latent_card, ((1, y1), (2, y2)))
                lc = max(lc_rank_trials(component, trials=2, seed=seed))
                oracle_de = oracle_effective_dimension(
                    latent_class_model(latent_card, (y1, y2)), trials=1, seed=seed
                )
                if lc != oracle_de:
                    lc_vs_oracle_failures.append((latent_card, y1, y2, lc, oracle_de))
                closed_form = min(
                    standard_dimension(component.star),
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
