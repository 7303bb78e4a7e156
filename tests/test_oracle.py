"""Brute-force Jacobian oracle: joint distribution, Jacobian, limits."""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import time

import pytest

import support
from support import (
    all_states,
    build_model,
    bumped_points,
    full_jacobian,
    full_lc_jacobian,
    jacobian_weights,
    joint_observed_distribution,
    latent_class_model,
    random_tree_model,
    reference_draw_point,
    reference_joint_observed_distribution,
    reference_lc_jacobian_at,
    reference_observed_joint_jacobian,
    reference_oracle_effective_dimension,
    reference_packed_jacobian,
    reference_packed_rank,
    reference_sums_gradient,
    reference_sums_inside,
    reference_weights,
    two_branch_hierarchy,
)
from treedim import (
    CellLimitError,
    RankPolicy,
    TreeModel,
    Variable,
    effective_dimension,
    oracle_effective_dimension,
)
from treedim import oracle, rank
from treedim.decompose import LcComponent
from treedim.model import standard_dimension
from treedim.oracle import observed_joint_jacobian, sample_full_point
from treedim.rank import PRIME, derive_seed


def _inverse(n):
    """The field image of 1/n."""
    return pow(n, -1, PRIME)


HALF = [_inverse(2)] * 2  # a completed binary block


class TestJointDistribution:
    def test_single_coin(self):
        coin = build_model([("Y", 2, True)], [])
        point = [[[_inverse(3), 2 * _inverse(3) % PRIME]]]
        assert joint_observed_distribution(coin, point) == (
            _inverse(3),
            2 * _inverse(3) % PRIME,
        )

    def test_symmetric_latent_pair_is_uniform(self):
        model = latent_class_model(2, (2, 2))
        point = [[HALF], [HALF, HALF], [HALF, HALF]]
        assert joint_observed_distribution(model, point) == (_inverse(4),) * 4

    def test_sums_to_one_on_random_models(self):
        rng = random.Random(2718)
        for _ in range(20):
            model = random_tree_model(rng, max_vars=6)
            point = sample_full_point(model, rng)
            dist = joint_observed_distribution(model, point)
            assert sum(dist) % PRIME == 1
            assert all(0 <= p < PRIME for p in dist)

    def test_matches_direct_enumeration(self):
        # Independent recomputation: sum over all full configurations of
        # the product of table entries, no factor machinery involved.
        model = build_model(
            [("A", 2, True), ("L", 3, False), ("B", 2, True), ("C", 2, True)],
            [("A", "L"), ("L", "B"), ("L", "C")],
        )
        rng = random.Random(5)
        point = sample_full_point(model, rng)
        (full,), *tables = point
        parents = {1: 0, 2: 1, 3: 1}
        cards = {v.id: v.cardinality for v in model.variables}
        probs = {}
        for config in itertools.product(*(range(cards[i]) for i in range(4))):
            p = full[config[0]]
            for vid in (1, 2, 3):
                p *= tables[vid - 1][config[parents[vid]]][config[vid]]
            key = (config[0], config[2], config[3])  # observed ids 0, 2, 3
            probs[key] = probs.get(key, 0) + p
        expected = tuple(
            probs[key] % PRIME
            for key in itertools.product(range(2), range(2), range(2))
        )
        assert joint_observed_distribution(model, point) == expected


class TestJacobian:
    def test_matches_closed_form_on_latent_class_models(self):
        # The sum-product full-model Jacobian and the closed-form
        # component Jacobian are independent derivations; on a pure
        # latent-class model they must agree entry by entry mod the
        # field prime, at the model's point, which is also the
        # component's.  The component's passes on its star agree too.
        for card, leaves in [(2, (2, 2)), (3, (2, 3)), (2, (3, 3)), (2, (1, 3))]:
            neighbors = tuple((i + 1, c) for i, c in enumerate(leaves))
            component = LcComponent(0, card, neighbors)
            rng = random.Random(card * 7 + len(leaves))
            model = latent_class_model(card, leaves)
            point = sample_full_point(model, rng)
            oracle_jac = full_jacobian(model, point)
            states = all_states(leaves)[:-1]
            assert oracle_jac == reference_lc_jacobian_at(component, point, states)
            assert oracle_jac == full_lc_jacobian(component, point)

    def test_matches_exact_finite_differences_on_random_trees(self):
        # The joint is affine in every single free weight, so a finite
        # difference with step 1 is the exact partial derivative mod PRIME.
        # Random trees carry latent-latent edges and observed internal
        # nodes, which no latent-class model has.
        rng = random.Random(8128)
        latent_edges = observed_internal = 0
        for _ in range(25):
            model = random_tree_model(rng, max_vars=7, max_card=3)
            latent = {v.id for v in model.latent_variables}
            latent_edges += sum(a in latent and b in latent for a, b in model.edges)
            observed_internal += sum(
                len(model.neighbors(v.id)) > 1 for v in model.observed_variables
            )
            point = sample_full_point(model, rng)
            jac = full_jacobian(model, point)
            base = joint_observed_distribution(model, point)[:-1]
            columns = []
            for bumped in bumped_points(point):
                joint = joint_observed_distribution(model, bumped)
                columns.append(tuple((b - a) % PRIME for a, b in zip(base, joint)))
            assert len(columns) == standard_dimension(model)
            assert jac == tuple(zip(*columns))
        assert latent_edges and observed_internal

    def test_point_must_match_model(self):
        model = latent_class_model(2, (2, 3))  # tables of shape 1 x 2, 2 x 2, 2 x 3
        weights = jacobian_weights([2, 3])
        point = sample_full_point(model, random.Random(3))
        for bad in [
            [],
            point[:2],  # a table missing
            point + [[[1]]],  # a table too many
            [point[0] * 2, *point[1:]],  # two root blocks
            [point[0], point[1][:1], point[2]],  # a block missing
            [point[0], point[1], [b[:2] for b in point[2]]],  # blocks too narrow
        ]:
            with pytest.raises(ValueError, match="point does not match"):
                observed_joint_jacobian(model, bad, weights)

    def test_fully_observed_pair_jacobian_shape(self):
        model = build_model([("A", 2, True), ("B", 2, True)], [("A", "B")])
        point = sample_full_point(model, random.Random(1))
        jac = full_jacobian(model, point)
        assert (len(jac), len(jac[0])) == (3, 3)
        assert all(type(x) is int and 0 <= x < PRIME for row in jac for x in row)


class TestSketch:
    def test_rows_combine_the_jacobian_rows_by_the_functional(self):
        # The gradient of S = sum_x prod_v a_v(x_v) P(x) is the same
        # combination of the rows J(x), with the dropped last state's row
        # J(last) = -sum of the others (the joint sums to one).
        rng = random.Random(1729)
        latent_edges = observed_internal = 0
        for _ in range(30):
            model = random_tree_model(rng, max_vars=7, max_card=3)
            latent = {v.id for v in model.latent_variables}
            latent_edges += sum(a in latent and b in latent for a, b in model.edges)
            observed_internal += sum(
                len(model.neighbors(v.id)) > 1 for v in model.observed_variables
            )
            observed = model.observed_variables
            n = standard_dimension(model)
            point = sample_full_point(model, rng)
            jac = full_jacobian(model, point)
            last = tuple(-sum(row[j] for row in jac) % PRIME for j in range(n))
            rows = jac + (last,)
            states = all_states([v.cardinality for v in observed])
            weights = _random_weights(rng, observed, 3)
            sketch = observed_joint_jacobian(model, point, weights)
            assert len(sketch) == 3
            for j, row in enumerate(sketch):
                at_state = [
                    math.prod(table[x][j] for table, x in zip(weights, state))
                    for state in states
                ]
                expected = tuple(
                    sum(w * r[c] for w, r in zip(at_state, rows)) % PRIME
                    for c in range(n)
                )
                assert row == expected
        assert latent_edges and observed_internal

    def test_functional_shape_is_checked(self):
        model = latent_class_model(2, (2, 3))
        point = sample_full_point(model, random.Random(4))
        assert observed_joint_jacobian(model, point, [[[], []], [[], [], []]]) == ()
        for weights in [
            [],
            [[[1], [2]]],  # a table missing
            [[[1], [2]], [[1], [2]]],  # a table one row short
            [[[1], [2]], [[1], [2], [3]], [[1]]],  # a table too many
            [[[1], [2]], [[1], [2], [3, 4]]],  # ragged functional count
        ]:
            with pytest.raises(ValueError, match="table per observed variable"):
                observed_joint_jacobian(model, point, weights)


def _random_weights(rng, observed, k):
    """Weight tables of ``k`` random functionals: ``[i][x][j]``."""
    return [
        [[rng.randrange(PRIME) for _ in range(k)] for _ in range(v.cardinality)]
        for v in observed
    ]


def _mapped(point, f):
    """The point with ``f`` applied to every free weight, each block's last
    weight one minus the rest again."""

    def complete(free):
        return [*free, 1 - sum(free)]

    return [[complete([f(w) for w in b[:-1]]) for b in table] for table in point]


def _keystone_models() -> list[TreeModel]:
    """The keystone benchmark's models: the acceptance suite's keystone set
    (seed 20260801) and the two-branch hierarchy."""
    rng = random.Random(20260801)
    models = [random_tree_model(rng, max_vars=7, max_latent=3) for _ in range(100)]
    return models + [two_branch_hierarchy()]


def _lc_wide_stars() -> list[TreeModel]:
    """The stars of the lc_wide benchmark's four signatures."""
    signatures = ((4, (3,) * 6), (3, (2,) * 11), (6, (3,) * 3), (4, (2,) * 4))
    return [LcComponent(0, c, tuple(enumerate(cards))).star for c, cards in signatures]


# sha256 of the points and functionals drawn in the pin test below, as
# draw_point and _functionals drew them before draw_point sliced its blocks.
DRAWS_DIGEST = "2feceef452a27e3703c9b7eb449e8e93ce1dd233775e2f7d7c0dccda46f7888a"


def _drawn_point(model, rng):
    """``sample_full_point``, checked against the sampler it replaced: the
    same tables from a copy of the stream, which both leave in one state."""
    twin = random.Random()
    twin.setstate(rng.getstate())
    point = sample_full_point(model, rng)
    assert point == reference_draw_point(model, twin)
    assert rng.getstate() == twin.getstate()
    return point


def _passes_match_their_parents(model, point, weights) -> bool:
    """Whether ``partial``, ``up`` and the gradient columns of the passes
    equal those of the passes before they inlined their packed sums."""
    _, children, order = model._rooting
    ids = [v.id for v in model.variables]
    tables = {vid: [rank._residues(b) for b in t] for vid, t in zip(ids, point)}
    observed = [(v.id, v.cardinality) for v in model.observed_variables]
    weights, k = reference_weights(observed, weights)
    passes = rank._inside(order, children, tables, weights, k)
    parents = reference_sums_inside(order, children, tables, weights, k)
    grad = rank._gradient(order, children, tables, weights, *passes)
    return passes == parents and grad == reference_sums_gradient(
        order, children, tables, weights, *parents
    )


class TestPackedKernels:
    """The packed passes against the list-based reference passes."""

    def test_random_trees_match_the_reference(self):
        rng = random.Random(3141)
        observed_internal = unit_cards = unobserved_subtrees = 0
        for _ in range(50):
            model = random_tree_model(rng, max_vars=7, max_card=3)
            observed = model.observed_variables
            observed_internal += sum(len(model.neighbors(v.id)) > 1 for v in observed)
            unit_cards += sum(v.cardinality == 1 for v in model.variables)
            _, children, _ = model._rooting
            latent_leaves = [v for v in model.latent_variables if not children[v.id]]
            unobserved_subtrees += len(latent_leaves)
            point = _drawn_point(model, rng)
            for k in (1, 2, 3, 64):
                weights = _random_weights(rng, observed, k)
                jac = observed_joint_jacobian(model, point, weights)
                assert jac == reference_observed_joint_jacobian(model, point, weights)
                assert jac == reference_packed_jacobian(model, point, weights)
                assert _passes_match_their_parents(model, point, weights)
                assert rank.exact_rank(jac) == reference_packed_rank(jac)
                # one column per free parameter, in every row
                assert {len(row) for row in jac} == {standard_dimension(model)}
            indicators = jacobian_weights([v.cardinality for v in observed])
            assert full_jacobian(model, point) == reference_observed_joint_jacobian(
                model, point, indicators
            )
        assert observed_internal and unit_cards and unobserved_subtrees

    def test_extreme_entries_match_the_reference(self):
        # All-(p-1) functionals, and a point whose free weights are all
        # p-1 or all zero: the largest slot sums and zero weights.
        rng = random.Random(2)
        for _ in range(10):
            model = random_tree_model(rng, max_vars=7, max_card=3)
            observed = model.observed_variables
            top = [[[PRIME - 1] * 3] * v.cardinality for v in observed]
            sampled = _drawn_point(model, rng)
            for point in (
                sampled,
                _mapped(sampled, lambda w: PRIME - 1),
                _mapped(sampled, lambda w: 0),
            ):
                for weights in (top, _random_weights(rng, observed, 2)):
                    assert observed_joint_jacobian(
                        model, point, weights
                    ) == reference_observed_joint_jacobian(model, point, weights)
                    assert _passes_match_their_parents(model, point, weights)

    def test_keystone_live_parts_and_lc_wide_stars_match_the_parent_kernels(
        self, monkeypatch
    ):
        # The oracle's inputs to the passes on every keystone model's live
        # part, as its first trial draws them, and the four lc_wide
        # signatures' stars over three trials.
        seen = []
        real = oracle.observed_joint_jacobian

        def spy(part, point, weights):
            seen.append((part, point, weights))
            return real(part, point, weights)

        monkeypatch.setattr(oracle, "observed_joint_jacobian", spy)
        models = _keystone_models()
        for seed, model in enumerate(models):
            oracle_effective_dimension(model, trials=1, seed=seed)
            _drawn_point(model, random.Random(derive_seed(seed, "oracle-trial", 0)))
        assert len(seen) == len(models)
        for star in _lc_wide_stars():
            cards = [v.cardinality for v in star.observed_variables]
            for trial in range(3):
                rng = random.Random(derive_seed(0, "lc-trial", trial))
                point = _drawn_point(star, rng)
                n = sum(b * (c - 1) for b, c in rank._shapes(star))
                k = min(n, math.prod(cards) - 1)
                seen.append((star, point, rank._functionals(rng, cards, k)))
        for part, point, weights in seen:
            assert _passes_match_their_parents(part, point, weights)

    def test_drawn_points_and_functionals_are_pinned(self):
        # For fixed seeds, draw_point then _functionals give the values
        # they gave when draw_point read its blocks through an islice.
        digest = hashlib.sha256()
        for seed, model in enumerate(_keystone_models() + _lc_wide_stars()):
            rng = random.Random(derive_seed(seed, "oracle-trial", 0))
            point = rank.draw_point(model, rng)
            cards = [v.cardinality for v in model.observed_variables]
            digest.update(repr((point, rank._functionals(rng, cards, 3))).encode())
        assert digest.hexdigest() == DRAWS_DIGEST

    def test_indicator_joint_matches_the_reference(self):
        rng = random.Random(6)
        for _ in range(20):
            model = random_tree_model(rng, max_vars=6)
            point = sample_full_point(model, rng)
            assert joint_observed_distribution(
                model, point
            ) == reference_joint_observed_distribution(model, point)

    def test_a_wide_leaf_needs_wide_slots(self):
        # The wide leaf's message sums 8193 products of a table entry and
        # p-1, about 2**134 at random table entries: a slot of 128 bits
        # would carry into its neighbor.
        model = latent_class_model(2, (2**13 + 1, 2))
        rng = random.Random(13)
        point = sample_full_point(model, rng)
        weights = [
            [[PRIME - 1] * 2] * (2**13 + 1),
            [[rng.randrange(PRIME) for _ in range(2)] for _ in range(2)],
        ]
        jac = observed_joint_jacobian(model, point, weights)
        assert jac == reference_observed_joint_jacobian(model, point, weights)

    def test_entries_outside_the_field_act_as_their_residues(self):
        rng = random.Random(11)
        for _ in range(10):
            model = random_tree_model(rng, max_vars=6)
            observed = model.observed_variables
            point = sample_full_point(model, rng)
            weights = _random_weights(rng, observed, 3)
            expected = observed_joint_jacobian(model, point, weights)
            for shift in (3 * PRIME, -PRIME):
                moved = _mapped(point, lambda w: w + shift)
                assert observed_joint_jacobian(model, moved, weights) == expected
                assert joint_observed_distribution(
                    model, moved
                ) == joint_observed_distribution(model, point)
                weights_moved = [
                    [[w + shift for w in row] for row in table] for table in weights
                ]
                assert observed_joint_jacobian(model, point, weights_moved) == expected


class TestOracleEffectiveDimension:
    def test_fully_observed_chain_is_saturated(self):
        chain = build_model([("A", 2, True), ("B", 2, True)], [("A", "B")])
        assert oracle_effective_dimension(chain, trials=1) == 3

    def test_fully_observed_equals_standard_dimension(self):
        rng = random.Random(161)
        for _ in range(8):
            model = random_tree_model(rng, max_vars=5)
            if model.latent_variables:
                continue
            assert oracle_effective_dimension(model, trials=1) == standard_dimension(
                model
            )

    def test_binary_latent_pair(self):
        assert (
            oracle_effective_dimension(latent_class_model(2, (2, 2)), trials=2) == 3
        )

    def test_relabeling_does_not_change_dimension(self):
        # Reversing ids changes the canonical root; the result is a
        # property of the model, not of the rooting.
        model = build_model(
            [("A", 3, True), ("L", 2, False), ("B", 2, True), ("C", 3, True)],
            [("A", "L"), ("L", "B"), ("L", "C")],
        )
        n = len(model.variables)
        relabeled = TreeModel(
            tuple(
                Variable(n - 1 - v.id, v.name, v.cardinality, v.observed)
                for v in model.variables
            ),
            tuple((n - 1 - a, n - 1 - b) for a, b in model.edges),
        )
        assert oracle_effective_dimension(
            model, trials=1, seed=3
        ) == oracle_effective_dimension(relabeled, trials=1, seed=3)

    def test_beyond_the_old_state_limit(self):
        # 16384 observed states: the sketched oracle has no joint-state limit.
        big = latent_class_model(2, (4,) * 7)
        de = effective_dimension(big, RankPolicy(trials=2)).effective_dimension
        assert oracle_effective_dimension(big, trials=1) == de == 43

    def test_cheap_model_past_the_former_parameter_cap(self):
        # 699 parameters but 16 states: k = 15 rows, 10,485 cells.
        model = latent_class_model(100, (4, 4))
        de = effective_dimension(model, RankPolicy(trials=1)).effective_dimension
        assert oracle_effective_dimension(model, trials=1) == de == 15

    def test_cell_limit(self):
        # Four observed 16-state variables in a chain: k = ds = 735 rows over
        # the point's 16 + 3 * 256 = 784 entries.
        model = build_model(
            [(f"Y{i}", 16, True) for i in range(4)],
            [(f"Y{i}", f"Y{i + 1}") for i in range(3)],
        )
        message = "^oracle needs 735 x 784 cells > 262144$"
        with pytest.raises(CellLimitError, match=message):
            oracle_effective_dimension(model)

    def test_trials_stop_once_one_reaches_k(self, monkeypatch):
        # A trial ranks k rows, so no trial after one that reaches k can
        # rank higher.  c = 2 over (2, 2): k = min(5, 3) = 3, reached at
        # once.  m1: k = 45 and rank 43, so every trial runs.
        calls = []

        def counted(rows):
            calls.append(len(rows))
            return rank.exact_rank(rows)

        monkeypatch.setattr(oracle, "exact_rank", counted)
        assert oracle_effective_dimension(latent_class_model(2, (2, 2)), trials=3) == 3
        assert len(calls) == 1
        calls.clear()
        assert oracle_effective_dimension(two_branch_hierarchy(), trials=3) == 43
        assert len(calls) == 3

    def test_bounded_by_dimension_and_joint_size(self):
        rng = random.Random(55)
        for _ in range(10):
            model = random_tree_model(rng, max_vars=6)
            de = oracle_effective_dimension(model, trials=1, seed=8)
            states = 1
            for v in model.observed_variables:
                states *= v.cardinality
            assert de <= min(standard_dimension(model), states - 1)


def _hang_latent_chain(model: TreeModel, rng: random.Random) -> TreeModel:
    """The model with a chain of 1-3 latents of cardinality 1-4 hung off a
    random node; the chain takes the lowest ids half the time, so the root
    can sit at its free end."""
    length = rng.randint(1, 3)
    low = rng.random() < 0.5
    shift = length if low else 0
    first = 0 if low else len(model.variables)
    chain = [
        Variable(first + i, f"H{i}", rng.randint(1, 4), False) for i in range(length)
    ]
    anchor = rng.choice(model.variables).id + shift
    edges = [(a + shift, b + shift) for a, b in model.edges]
    edges += [(anchor, first)] + [(first + i, first + i + 1) for i in range(length - 1)]
    variables = [
        Variable(v.id + shift, v.name, v.cardinality, v.observed)
        for v in model.variables
    ]
    return TreeModel(tuple(variables + chain), tuple(edges))


def _live_ids(model: TreeModel) -> set[int]:
    """The observed variables and their ancestors toward the lowest id."""
    parents, live = model._rooting[0], set()
    for v in model.observed_variables:
        node = v.id
        while node not in live:
            live.add(node)
            node = parents.get(node, node)
    return live


class TestLiveParameters:
    # A (3) - L (2) - {B (3), C (3)}, with the latent chain L - D (3) - E (2)
    # hanging off L.  Rooted at A: 20 parameters, of which D's 4 and E's 3
    # cannot move the joint of A, B and C over 27 states.
    DEAD_CHAIN = build_model(
        [
            ("A", 3, True),
            ("L", 2, False),
            ("B", 3, True),
            ("C", 3, True),
            ("D", 3, False),
            ("E", 2, False),
        ],
        [("A", "L"), ("L", "B"), ("L", "C"), ("L", "D"), ("D", "E")],
    )

    def test_k_counts_only_the_live_parameters(self, monkeypatch):
        draws, shapes = [], []
        real_draws, real_rank = rank.field_draws, oracle.exact_rank

        def recording_draws(rng, count, p):
            draws.append(count)
            return real_draws(rng, count, p)

        def recording_rank(rows):
            shapes.append((len(rows), len(rows[0])))
            return real_rank(rows)

        # The point and the functionals are both drawn in rank.
        monkeypatch.setattr(rank, "field_draws", recording_draws)
        for module in (oracle, support):
            monkeypatch.setattr(module, "exact_rank", recording_rank)
        model = self.DEAD_CHAIN
        assert standard_dimension(model) == 20
        assert oracle_effective_dimension(model, trials=1) == 13
        # The point draws all 20 parameters; the functionals k = min(13, 26)
        # times 9 observed states; 13 rows of the 13 live columns are ranked.
        assert draws == [20, 13 * 9]
        assert shapes == [(13, 13)]
        # Before: k = min(20, 26) functionals, all 20 columns.
        draws.clear()
        shapes.clear()
        assert reference_oracle_effective_dimension(model, trials=1) == 13
        assert draws == [20, 20 * 9]
        assert shapes == [(20, 20)]
        assert effective_dimension(model).effective_dimension == 13

    def test_a_fully_live_model_is_its_own_part(self, monkeypatch):
        parts = []
        real = oracle.observed_joint_jacobian

        def spy(part, point, weights):
            parts.append(part)
            return real(part, point, weights)

        monkeypatch.setattr(oracle, "observed_joint_jacobian", spy)
        hierarchy = two_branch_hierarchy()  # every latent has observed leaves
        assert oracle_effective_dimension(hierarchy, trials=2) == 43
        assert parts and all(part is hierarchy for part in parts)
        parts.clear()
        assert oracle_effective_dimension(self.DEAD_CHAIN, trials=1) == 13
        (part,) = parts
        assert part is not self.DEAD_CHAIN
        assert [v.name for v in part.variables] == ["A", "L", "B", "C"]
        assert part.edges == ((0, 1), (1, 2), (1, 3))

    def test_any_integer_point_matches_the_reference(self):
        # The passes read no block as summing to one: at integer points
        # whose dead-subtree blocks do not, with entries below 0 or at least
        # p, they equal the list-based passes.
        rng = random.Random(2)
        draws = [
            lambda: rng.randint(-4, 4),
            lambda: rng.randrange(-4 * PRIME, 0),
            lambda: rng.randrange(PRIME, 4 * PRIME),
            lambda: rng.randrange(PRIME),
        ]
        points = unbalanced = 0
        for model in [self.DEAD_CHAIN] * 20 + [
            _hang_latent_chain(random_tree_model(rng, max_vars=5), rng)
            for _ in range(280)
        ]:
            dead = [v.id not in _live_ids(model) for v in model.variables]
            for _ in range(10):
                point = [
                    [[rng.choice(draws)() for _ in b] for b in t]
                    for t in _drawn_point(model, rng)
                ]
                k = rng.randint(1, 3)
                weights = _random_weights(rng, model.observed_variables, k)
                jac = observed_joint_jacobian(model, point, weights)
                assert jac == reference_observed_joint_jacobian(model, point, weights)
                assert jac == reference_packed_jacobian(model, point, weights)
                assert _passes_match_their_parents(model, point, weights)
                assert rank.exact_rank(jac) == reference_packed_rank(jac)
                points += 1
                unbalanced += any(
                    sum(b) % PRIME != 1
                    for t, is_dead in zip(point, dead)
                    if is_dead
                    for b in t
                )
        assert points == 3000 and unbalanced >= 2000

    def test_oracle_ranks_the_live_columns_as_rows(self, monkeypatch):
        # The matrix the oracle ranks is the live columns, as rows, of the
        # whole model's Jacobian at the same point, and its rank is that of
        # the whole Jacobian's nonzero columns.
        record = {}

        def recorded(name, real):
            def call(*args):
                record[name] = args, real(*args)
                return record[name][1]

            return call

        for name in ("sample_full_point", "_functionals", "exact_rank"):
            monkeypatch.setattr(oracle, name, recorded(name, getattr(oracle, name)))
        rng = random.Random(77)
        with_dead = 0
        for i in range(240):
            model = random_tree_model(rng, max_vars=6)
            if i % 2:
                model = _hang_latent_chain(model, rng)
            de = oracle_effective_dimension(model, trials=1, seed=i)
            point = record["sample_full_point"][1]
            weights = record["_functionals"][1]
            (rows,), rank_found = record["exact_rank"]
            live = _live_ids(model)
            shapes = zip(model.variables, rank._shapes(model))
            kept = [v.id in live for v, (b, c) in shapes for _ in range(b * (c - 1))]
            whole = reference_observed_joint_jacobian(model, point, weights)
            columns = list(zip(*whole))
            assert rows == tuple(zip(*itertools.compress(columns, kept)))
            dead = [col for col, keep in zip(columns, kept) if not keep]
            assert not any(map(any, dead))
            assert de == rank_found == rank.exact_rank([c for c in columns if any(c)])
            assert rank_found == reference_packed_rank(rows)
            with_dead += len(live) < len(model.variables)
        assert with_dead >= 100

    def test_hanging_latent_chains_match_the_reference(self):
        rng = random.Random(4242)
        roots_in_chain = 0
        for i in range(40):
            model = _hang_latent_chain(random_tree_model(rng, max_vars=5), rng)
            roots_in_chain += not model.variables[0].observed
            de = oracle_effective_dimension(model, trials=1, seed=i)
            assert de == reference_oracle_effective_dimension(model, trials=1, seed=i)
            policy = RankPolicy(trials=2, seed=i)
            assert de == effective_dimension(model, policy).effective_dimension
        assert roots_in_chain >= 10


class TestCellLimitBeforeAnyDraw:
    """The oracle refuses exactly when max(k, 1) times the point's entry
    count exceeds rank.CELL_LIMIT, and refuses before any draw."""

    class Drawn(Exception):
        pass

    @pytest.fixture(autouse=True)
    def no_draw(self, monkeypatch):
        def drawn(rng, count, p):
            raise self.Drawn(count)

        monkeypatch.setattr(rank, "field_draws", drawn)

    @staticmethod
    def latent_with_leaves(latent, leaves):
        specs = [("L", latent, False)]
        specs += [(f"Y{i}", card, True) for i, card in enumerate(leaves)]
        return build_model(specs, [("L", f"Y{i}") for i in range(len(leaves))])

    def test_exactly_at_the_limit_reaches_the_draw(self):
        # A latent of 2**15 states over one ternary leaf: k = 2 rows over
        # 2**15 * (1 + 3) entries, exactly 2**18 cells.
        model = self.latent_with_leaves(2**15, [3])
        with pytest.raises(self.Drawn):
            oracle_effective_dimension(model)

    def test_one_latent_state_more_raises(self):
        model = self.latent_with_leaves(2**15 + 1, [3])
        with pytest.raises(CellLimitError, match="^oracle needs 2 x 131076 cells"):
            oracle_effective_dimension(model)

    def test_observed_variable_of_512_states_reaches_the_draw(self):
        # k = ds = 511 rows over 512 entries: 261,632 cells.
        model = build_model([("A", 512, True)], [])
        with pytest.raises(self.Drawn):
            oracle_effective_dimension(model)

    def test_observed_variable_of_513_states_raises(self):
        # k = ds = 512 rows over 513 entries: 262,656 cells.
        model = build_model([("A", 513, True)], [])
        with pytest.raises(CellLimitError, match="^oracle needs 512 x 513 cells"):
            oracle_effective_dimension(model)

    def test_no_live_rows_still_counts_the_point(self):
        # k = 0, yet the point alone would hold 10**40 + 1 entries.
        model = build_model([("A", 1, True), ("L", 10**40, False)], [("A", "L")])
        with pytest.raises(CellLimitError, match=r"^oracle needs 1 x 1\.0e40 cells"):
            oracle_effective_dimension(model)

    def test_one_state_leaves_count_their_blocks(self):
        # ds = 2**18 - 1 and k = 1, but each one-state leaf has one entry per
        # latent state: 103 * 2**17 entries in all.
        model = self.latent_with_leaves(2**17, [2] + [1] * 100)
        with pytest.raises(CellLimitError, match="^oracle needs 1 x 13500416 cells"):
            oracle_effective_dimension(model)

    def test_message_past_the_digit_limit(self):
        # About 10**4400 entries, past the 4,300 digits str() of an int allows.
        card = 10**2200
        model = build_model([("A", card, True), ("B", card, True)], [("A", "B")])
        with pytest.raises(
            CellLimitError, match=r"^oracle needs 1\.0e4400 x 1\.0e4400 cells"
        ):
            oracle_effective_dimension(model)

    def test_many_huge_observed_variables_are_refused_at_once(self):
        # The product of the observed cardinalities stops once it passes the
        # live parameter count, so 1,000 of 10**1000 states each cost little.
        card = 10**1000
        model = build_model(
            [(f"Y{i}", card, True) for i in range(1000)],
            [(f"Y{i}", f"Y{i + 1}") for i in range(999)],
        )
        start = time.perf_counter()
        with pytest.raises(CellLimitError):
            oracle_effective_dimension(model)
        assert time.perf_counter() - start < 1.0
