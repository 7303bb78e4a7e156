"""Brute-force Jacobian oracle: joint distribution, Jacobian, limits."""

from __future__ import annotations

import itertools
import math
import random

import pytest

import support
from support import (
    all_states,
    build_model,
    full_jacobian,
    full_lc_jacobian,
    jacobian_weights,
    joint_observed_distribution,
    latent_class_model,
    random_tree_model,
    reference_joint_observed_distribution,
    reference_observed_joint_jacobian,
    reference_oracle_effective_dimension,
)
from treedim import (
    OracleLimitError,
    RankPolicy,
    TreeModel,
    Variable,
    effective_dimension,
    oracle_effective_dimension,
)
from treedim import oracle
from treedim.decompose import LcComponent
from treedim.model import standard_dimension
from treedim.oracle import (
    FullParameterPoint,
    observed_joint_jacobian,
    sample_full_point,
)
from treedim.rank import PRIME, sample_lc_point


def _inverse(n):
    """The field image of 1/n."""
    return pow(n, -1, PRIME)


HALF = (_inverse(2),)


def _bumped_points(point):
    """Copies of the point with one free weight raised by 1 mod PRIME, in the
    oracle's column order: root block, then ascending non-root ids, each
    with one block per parent state."""
    tables = [(point.root_id, (point.root_weights,))] + sorted(point.conditionals)
    for k, (vid, blocks) in enumerate(tables):
        for b, block in enumerate(blocks):
            for s in range(len(block)):
                bumped = block[:s] + ((block[s] + 1) % PRIME,) + block[s + 1 :]
                new_blocks = blocks[:b] + (bumped,) + blocks[b + 1 :]
                if k == 0:
                    yield FullParameterPoint(vid, bumped, point.conditionals)
                else:
                    conditionals = tuple(
                        (v, new_blocks if v == vid else bs)
                        for v, bs in point.conditionals
                    )
                    yield FullParameterPoint(
                        point.root_id, point.root_weights, conditionals
                    )


class TestJointDistribution:
    def test_single_coin(self):
        coin = build_model([("Y", 2, True)], [])
        point = FullParameterPoint(0, (_inverse(3),), ())
        assert joint_observed_distribution(coin, point) == (
            _inverse(3),
            2 * _inverse(3) % PRIME,
        )

    def test_symmetric_latent_pair_is_uniform(self):
        model = latent_class_model(2, (2, 2))
        point = FullParameterPoint(0, HALF, ((1, (HALF, HALF)), (2, (HALF, HALF))))
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
        full = {0: list(point.root_weights) + [1 - sum(point.root_weights)]}
        tables = {}
        for vid, blocks in point.conditionals:
            tables[vid] = [list(b) + [1 - sum(b)] for b in blocks]
        parents = {1: 0, 2: 1, 3: 1}
        cards = {v.id: v.cardinality for v in model.variables}
        probs = {}
        for config in itertools.product(*(range(cards[i]) for i in range(4))):
            p = full[0][config[0]]
            for vid in (1, 2, 3):
                p *= tables[vid][config[parents[vid]]][config[vid]]
            key = (config[0], config[2], config[3])  # observed ids 0, 2, 3
            probs[key] = probs.get(key, 0) + p
        expected = tuple(
            probs[key] % PRIME
            for key in itertools.product(range(2), range(2), range(2))
        )
        assert joint_observed_distribution(model, point) == expected

    def test_point_must_match_model(self):
        coin = build_model([("Y", 2, True)], [])
        with pytest.raises(ValueError):
            joint_observed_distribution(coin, FullParameterPoint(0, (), ()))


class TestJacobian:
    def test_matches_closed_form_on_latent_class_models(self):
        # The sum-product full-model Jacobian and the closed-form
        # component Jacobian are independent derivations; on a pure
        # latent-class model they must agree entry by entry mod the
        # field prime.
        for card, leaves in [(2, (2, 2)), (3, (2, 3)), (2, (3, 3))]:
            neighbors = tuple((i + 1, c) for i, c in enumerate(leaves))
            component = LcComponent(0, card, neighbors, (False,) * len(leaves))
            rng = random.Random(card * 7 + len(leaves))
            lc_point = sample_lc_point(component, rng)
            full_point = FullParameterPoint(
                0,
                lc_point.class_weights,
                tuple(
                    (i + 1, lc_point.conditionals[i]) for i in range(len(leaves))
                ),
            )
            model = latent_class_model(card, leaves)
            oracle_jac = full_jacobian(model, full_point)
            assert oracle_jac == full_lc_jacobian(component, lc_point)

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
                model.degree(v.id) > 1 for v in model.observed_variables
            )
            point = sample_full_point(model, rng)
            jac = full_jacobian(model, point)
            base = joint_observed_distribution(model, point)[:-1]
            columns = []
            for bumped in _bumped_points(point):
                joint = joint_observed_distribution(model, bumped)
                columns.append(tuple((b - a) % PRIME for a, b in zip(base, joint)))
            assert len(columns) == standard_dimension(model)
            assert jac == tuple(zip(*columns))
        assert latent_edges and observed_internal

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
                model.degree(v.id) > 1 for v in model.observed_variables
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
    """The point with ``f`` applied to every free weight."""
    return FullParameterPoint(
        point.root_id,
        tuple(map(f, point.root_weights)),
        tuple(
            (vid, tuple(tuple(map(f, block)) for block in blocks))
            for vid, blocks in point.conditionals
        ),
    )


class TestPackedKernels:
    """The packed passes against the list-based reference passes."""

    def test_random_trees_match_the_reference(self):
        rng = random.Random(3141)
        observed_internal = unit_cards = unobserved_subtrees = 0
        for _ in range(50):
            model = random_tree_model(rng, max_vars=7, max_card=3)
            observed = model.observed_variables
            observed_internal += sum(model.degree(v.id) > 1 for v in observed)
            unit_cards += sum(v.cardinality == 1 for v in model.variables)
            _, children, _ = model._rooting
            latent_leaves = [v for v in model.latent_variables if not children[v.id]]
            unobserved_subtrees += len(latent_leaves)
            point = sample_full_point(model, rng)
            for k in (1, 2, 3, 64):
                weights = _random_weights(rng, observed, k)
                jac = observed_joint_jacobian(model, point, weights)
                assert jac == reference_observed_joint_jacobian(model, point, weights)
                # one column per free parameter, in every row
                assert {len(row) for row in jac} == {standard_dimension(model)}
            indicators = jacobian_weights(observed)
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
            sampled = sample_full_point(model, rng)
            for point in (
                sampled,
                _mapped(sampled, lambda w: PRIME - 1),
                _mapped(sampled, lambda w: 0),
            ):
                for weights in (top, _random_weights(rng, observed, 2)):
                    assert observed_joint_jacobian(
                        model, point, weights
                    ) == reference_observed_joint_jacobian(model, point, weights)

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

    def test_parameter_limit(self):
        model = latent_class_model(100, (4, 4))  # 699 parameters, 16 states
        with pytest.raises(OracleLimitError, match="parameters"):
            oracle_effective_dimension(model)

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
        real_draws, real_rank = oracle.field_draws, oracle.exact_rank

        def recording_draws(rng, count):
            draws.append(count)
            return real_draws(rng, count)

        def recording_rank(rows):
            shapes.append((len(rows), len(rows[0])))
            return real_rank(rows)

        for module in (oracle, support):
            monkeypatch.setattr(module, "field_draws", recording_draws)
            monkeypatch.setattr(module, "exact_rank", recording_rank)
        model = self.DEAD_CHAIN
        assert standard_dimension(model) == 20
        assert oracle_effective_dimension(model, trials=1) == 13
        # The point draws all 20 parameters; the functionals k = min(13, 26)
        # times 9 observed states; the 13 nonzero columns of 13 rows are ranked.
        assert draws == [20, 13 * 9]
        assert shapes == [(13, 13)]
        # Before: k = min(20, 26) functionals, all 20 columns.
        draws.clear()
        shapes.clear()
        assert reference_oracle_effective_dimension(model, trials=1) == 13
        assert draws == [20, 20 * 9]
        assert shapes == [(20, 20)]
        assert effective_dimension(model).effective_dimension == 13

    def test_hanging_latent_chains_match_the_reference(self):
        rng = random.Random(4242)
        roots_in_chain = 0
        for i in range(40):
            model = _hang_latent_chain(random_tree_model(rng, max_vars=5), rng)
            roots_in_chain += model.variables[0].latent
            de = oracle_effective_dimension(model, trials=1, seed=i)
            assert de == reference_oracle_effective_dimension(model, trials=1, seed=i)
            policy = RankPolicy(trials=2, seed=i)
            assert de == effective_dimension(model, policy).effective_dimension
        assert roots_in_chain >= 10
