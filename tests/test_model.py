"""Model validation, standard dimension, regularity, regularization."""

from __future__ import annotations

import math
import random
from dataclasses import replace
from itertools import accumulate
from operator import mul

import pytest

from support import (
    build_model,
    collapsed_hierarchy,
    random_tree_model,
    reference_check_regular,
    reference_regularize,
    rooted_standard_dimension,
    structural_signature,
    two_branch_hierarchy,
)
from treedim import (
    InvalidModelError,
    RankPolicy,
    TreeModel,
    Variable,
    effective_dimension,
    oracle_effective_dimension,
)
from treedim.model import (
    capped_product,
    check_regular,
    neighbor_bound,
    regularize,
    require_valid,
    standard_dimension,
)


class TestTreeModel:
    def test_neighbors_ascending_whatever_the_construction_order(self):
        vs = tuple(Variable(i, f"V{i}", 2, True) for i in range(5))
        edges = [(2, 0), (4, 2), (2, 1), (3, 2)]
        for order in (edges, edges[::-1], [(b, a) for a, b in edges]):
            model = TreeModel(vs[::-1], tuple(order))
            assert model.variables == vs
            assert model.neighbors(2) == (0, 1, 3, 4)
            assert model.neighbors(4) == (2,)
            assert len(model.neighbors(2)) == 4

    def test_unknown_variable_id_raises_key_error(self):
        model = two_branch_hierarchy()
        assert model.variable(4).name == "Y2"
        with pytest.raises(KeyError, match="unknown variable id 99"):
            model.variable(99)
        assert model.neighbors(99) == ()

    def test_a_replaced_model_carries_the_indexes_of_its_own_fields(self):
        # The indexes are built at construction: a model made by replace
        # must not keep those of the model it came from.  X3 (id 2) turns
        # observed and Y6 (id 8) moves from X3 to X2 (id 1).
        model = two_branch_hierarchy()
        assert not model.variable(2).observed and model._rooting[0][8] == 2
        flipped = list(model.variables)
        flipped[2] = replace(flipped[2], observed=True)
        edges = [(b, a) if b != 8 else (1, 8) for a, b in model.edges]
        moved = replace(model, variables=tuple(flipped[::-1]), edges=tuple(edges))
        rebuilt = TreeModel(moved.variables, moved.edges)
        for built in (moved, rebuilt):
            assert built.variable(2).observed and built._by_id[2] is flipped[2]
            assert built.neighbors(2) == (0, 6, 7)
            assert built.neighbors(1) == (0, 3, 4, 5, 8)
            assert [v.id for v in built.observed_variables] == list(range(2, 9))
            assert [v.id for v in built.latent_variables] == [0, 1]
            assert built._rooting[0][8] == 1
        assert moved == rebuilt and moved._adjacency == rebuilt._adjacency
        assert model.neighbors(2) == (0, 6, 7, 8) and not model.variable(2).observed
        # model was rooted above: replace roots its own fields, not a copy
        assert moved._rooting == rebuilt._rooting != model._rooting
        assert replace(model)._rooting == model._rooting


class TestValidate:
    """A model is valid by construction: ``TreeModel(...)`` raises
    :class:`InvalidModelError` carrying every error :func:`require_valid` finds."""

    def test_reference_hierarchy_is_valid(self):
        assert require_valid(two_branch_hierarchy()) is None

    def test_two_nodes_no_edges_is_disconnected(self):
        with pytest.raises(InvalidModelError) as caught:
            build_model([("A", 2, True), ("B", 2, True)], [])
        assert any("disconnected" in e for e in caught.value.errors)

    def test_all_latent_is_rejected(self):
        with pytest.raises(InvalidModelError) as caught:
            build_model([("A", 2, False), ("B", 2, False)], [("A", "B")])
        assert any("no observed variable" in e for e in caught.value.errors)

    def test_bad_cardinality(self):
        with pytest.raises(InvalidModelError) as caught:
            build_model([("A", 0, True)], [])
        assert any("cardinality" in e for e in caught.value.errors)

    def test_self_loop_and_duplicate_edge(self):
        vs = (Variable(0, "A", 2, True), Variable(1, "B", 2, True))
        with pytest.raises(InvalidModelError) as loop:
            TreeModel(vs, ((0, 0), (0, 1)))
        assert any("self-loop" in e for e in loop.value.errors)
        with pytest.raises(InvalidModelError) as dup:
            TreeModel(vs, ((0, 1), (1, 0)))
        assert any("duplicate edge" in e for e in dup.value.errors)

    def test_cycle_is_rejected(self):
        vs = tuple(Variable(i, f"V{i}", 2, True) for i in range(3))
        with pytest.raises(InvalidModelError) as caught:
            TreeModel(vs, ((0, 1), (1, 2), (0, 2)))
        assert caught.value.errors

    def test_unknown_edge_endpoint(self):
        with pytest.raises(InvalidModelError) as caught:
            TreeModel((Variable(0, "A", 2, True),), ((0, 5),))
        assert any("unknown variable id" in e for e in caught.value.errors)

    def test_duplicate_names(self):
        vs = (Variable(0, "A", 2, True), Variable(1, "A", 2, True))
        with pytest.raises(InvalidModelError) as caught:
            TreeModel(vs, ((0, 1),))
        assert any("duplicate variable name" in e for e in caught.value.errors)

    def test_whole_error_lists(self):
        # The reachability walk follows only edges between declared ids: an
        # unknown id never bridges two parts, and loops or repeats add nothing.
        vs = tuple(Variable(i, f"V{i}", 2, i != 1) for i in range(3))
        cases = [
            (
                ((0, 7), (1, 7), (1, 2)),
                [
                    "edge (0, 7) references an unknown variable id",
                    "edge (1, 7) references an unknown variable id",
                    "not a tree: 1 distinct edges for 3 variables",
                    "disconnected: only 1 of 3 variables reachable",
                ],
            ),
            (
                ((1, 1), (0, 1), (0, 1), (1, 2)),
                ["duplicate edge (0, 1)", "self-loop at variable id 1"],
            ),
            (
                ((0, 1), (0, 2), (1, 2)),
                ["not a tree: 3 distinct edges for 3 variables"],
            ),
            (
                (),
                [
                    "not a tree: 0 distinct edges for 3 variables",
                    "disconnected: only 1 of 3 variables reachable",
                ],
            ),
        ]
        for edges, errors in cases:
            with pytest.raises(InvalidModelError) as caught:
                TreeModel(vs, edges)
            assert caught.value.errors == errors, edges
        dup_id = (Variable(0, "A", 2, True), Variable(0, "B", 2, False))
        with pytest.raises(InvalidModelError) as caught:
            TreeModel(dup_id, ((0, 0),))
        assert caught.value.errors == [
            "duplicate variable id 0",
            "self-loop at variable id 0",
        ]

    def test_every_error_list_in_full_and_in_the_message(self):
        vs = tuple(Variable(i, f"V{i}", 2, True) for i in range(3))
        same_name = (Variable(0, "A", 2, True), Variable(1, "A", 2, True))
        cases = [
            (
                build_model,
                ([("A", 2, True), ("B", 2, True)], []),
                [
                    "not a tree: 0 distinct edges for 2 variables",
                    "disconnected: only 1 of 2 variables reachable",
                ],
            ),
            (
                build_model,
                ([("A", 2, False), ("B", 2, False)], [("A", "B")]),
                ["no observed variable"],
            ),
            (
                build_model,
                ([("A", 0, True)], []),
                ["variable 'A': cardinality must be >= 1"],
            ),
            (TreeModel, (vs[:2], ((0, 0), (0, 1))), ["self-loop at variable id 0"]),
            (TreeModel, (vs[:2], ((0, 1), (1, 0))), ["duplicate edge (0, 1)"]),
            (
                TreeModel,
                (vs[:1], ((0, 5),)),
                ["edge (0, 5) references an unknown variable id"],
            ),
            (TreeModel, (same_name, ((0, 1),)), ["duplicate variable name 'A'"]),
            (TreeModel, ((), ()), ["model has no variables"]),
        ]
        for build, args, errors in cases:
            with pytest.raises(InvalidModelError) as caught:
                build(*args)
            assert caught.value.errors == errors, args
            assert str(caught.value) == "; ".join(errors)

    def test_replace_is_checked_too(self):
        model = two_branch_hierarchy()
        with pytest.raises(InvalidModelError, match="disconnected"):
            replace(model, edges=model.edges[1:])

    def test_a_cardinality_that_is_not_an_int_is_refused(self):
        # A float, str, None or bool is no count of states: the model is
        # refused as invalid, never with a TypeError from a comparison.
        ab = (Variable(0, "A", 2.5, True), Variable(1, "B", 2, True))
        with pytest.raises(InvalidModelError) as caught:
            TreeModel(ab, ((0, 1),))
        assert caught.value.errors == ["variable 'A': cardinality must be an int"]
        bad = (2.5, 2.0, "3", None, True, False, 3 + 0j, b"2", [2])
        rng = random.Random(26)
        for _ in range(300):
            model = random_tree_model(rng, max_vars=9, max_latent=4)
            victim = rng.choice(model.variables)
            card = rng.choice(bad)
            variables = tuple(
                replace(v, cardinality=card) if v is victim else v
                for v in model.variables
            )
            with pytest.raises(InvalidModelError) as caught:
                TreeModel(variables, model.edges)
            message = f"variable {victim.name!r}: cardinality must be an int"
            assert caught.value.errors == [message], (model, card)


class TestStandardDimension:
    def test_two_branch_hierarchy(self):
        assert standard_dimension(two_branch_hierarchy()) == 45

    def test_collapsed_hierarchy(self):
        assert standard_dimension(collapsed_hierarchy()) == 44

    def test_single_observed_variable(self):
        assert standard_dimension(build_model([("Y", 3, True)], [])) == 2

    def test_binary_chain(self):
        chain = build_model(
            [("A", 2, True), ("B", 2, True), ("C", 2, True)],
            [("A", "B"), ("B", "C")],
        )
        # (a-1) + a(b-1) + b(c-1) = 1 + 2 + 2
        assert standard_dimension(chain) == 5

    def test_edge_sum_equals_the_rooted_count_at_every_root(self):
        rng = random.Random(4821)
        for _ in range(40):
            model = random_tree_model(rng, max_vars=9, max_card=5)
            ds = standard_dimension(model)
            for v in model.variables:
                assert rooted_standard_dimension(model, v.id) == ds

    def test_observed_pair_is_joint_size_minus_one(self):
        for a, b in [(2, 2), (2, 5), (4, 3)]:
            pair = build_model([("A", a, True), ("B", b, True)], [("A", "B")])
            assert standard_dimension(pair) == a * b - 1

    def test_invalid_model_rejected(self):
        with pytest.raises(InvalidModelError):
            standard_dimension(build_model([("A", 2, True), ("B", 2, True)], []))


class TestCheckRegular:
    def test_reference_hierarchies_are_regular(self):
        assert check_regular(two_branch_hierarchy()) == []
        assert check_regular(collapsed_hierarchy()) == []

    def test_ternary_root_violates_strictness(self):
        violations = check_regular(two_branch_hierarchy(root_cardinality=3))
        assert len(violations) == 1
        v = violations[0]
        assert v.variable_id == 0
        assert v.kind == "strict"
        assert v.allowed_max == 3

    def test_bound_saturation_fine_with_three_neighbors(self):
        model = build_model(
            [("Z", 9, False), ("A", 3, True), ("B", 3, True), ("C", 3, True)],
            [("Z", "A"), ("Z", "B"), ("Z", "C")],
        )
        assert check_regular(model) == []

    def test_bound_excess_reported_with_allowed_max(self):
        model = build_model(
            [("Z", 10, False), ("A", 3, True), ("B", 3, True), ("C", 3, True)],
            [("Z", "A"), ("Z", "B"), ("Z", "C")],
        )
        violations = check_regular(model)
        assert [(v.variable_id, v.kind, v.allowed_max) for v in violations] == [
            (0, "bound", 9)
        ]

    def test_latent_leaf_is_a_violation(self):
        model = build_model(
            [("Y", 3, True), ("L", 2, False)], [("Y", "L")]
        )
        violations = check_regular(model)
        assert violations and violations[0].allowed_max == 1


def _huge_cardinalities(rng: random.Random, count: int):
    """Random valid trees whose cardinalities mix 1-6 with hundreds of digits."""
    for _ in range(count):
        size, latents = rng.randint(2, 12), rng.randint(1, 6)
        tree = random_tree_model(rng, max_vars=size, max_latent=latents, max_card=6)
        yield TreeModel(
            tuple(
                replace(v, cardinality=rng.choice((10, 2, 3)) ** rng.randint(40, 900))
                if rng.random() < 0.5
                else v
                for v in tree.variables
            ),
            tree.edges,
        )


class TestCappedProduct:
    def test_exact_up_to_the_cap_and_a_prefix_product_past_it(self):
        rng = random.Random(1900)
        for _ in range(500):
            values = [
                rng.randint(1, 6) if rng.random() < 0.7 else 7 ** rng.randint(1, 300)
                for _ in range(rng.randint(1, 8))
            ]
            full = math.prod(values)
            cap = rng.choice((0, 1, full - 1, full, full + 1))
            cap = rng.choice((cap, rng.randint(0, 2 * full)))
            got = capped_product(values, cap)
            if full <= cap:
                assert got == full
            else:  # the first partial product past the cap
                assert got == next(p for p in accumulate(values, mul) if p > cap)

    def test_check_regular_equals_the_full_product(self):
        rng = random.Random(1901)
        found = huge = 0
        for tree in _huge_cardinalities(rng, 1000):
            violations = check_regular(tree)
            assert violations == reference_check_regular(tree)
            found += len(violations)
            huge += sum(v.allowed_max > 2**64 for v in violations)
        assert found > 500 and huge > 30  # coverage floors

    def test_regularize_equals_the_full_product(self):
        rng = random.Random(1902)
        steps = huge = 0
        for tree in _huge_cardinalities(rng, 1000):
            got = regularize(tree)
            assert got == reference_regularize(tree)
            steps += len(got[1])
            huge += sum((s.new_cardinality or 0) > 2**64 for s in got[1])
        assert steps > 500 and huge > 15  # coverage floors


def _settled_at(card: int, cards: list[int]):
    """Length of the shortest prefix whose bound passes ``card``, if any."""
    for k in range(1, len(cards) + 1):
        if math.prod(cards[:k]) > card * max(cards[:k]):
            return k
    return None


class TestNeighborBound:
    def _cases(self, seed: int, count: int):
        rng = random.Random(seed)
        for _ in range(count):
            cards = [
                rng.choice((1, 1, 2, 3, 4, 6, 7 ** rng.randint(1, 60)))
                for _ in range(rng.randint(1, 9))
            ]
            exact = math.prod(cards) // max(cards)
            near = (exact - 1, exact, exact + 1, rng.randint(1, 2 * exact))
            yield max(rng.choice((*near, rng.randint(1, 12))), 1), cards, exact

    def test_exact_up_to_card_and_above_it_otherwise(self):
        short = above = 0
        for card, cards, exact in self._cases(2800, 3000):
            got = neighbor_bound(card, iter(cards))
            if exact <= card or len(cards) <= 2:
                assert got == exact, (card, cards)
                short += len(cards) <= 2 and exact > card
            else:
                assert card < got <= exact, (card, cards)
                above += got < exact
        assert short > 30 and above > 250  # coverage floors

    def test_reads_no_neighbor_past_the_one_that_settles_it(self):
        def feed(cards, k):
            yield from cards[:k]
            raise AssertionError("read past the settling neighbor")

        early = 0
        for card, cards, exact in self._cases(2801, 3000):
            k = _settled_at(card, cards)
            if k is None:
                assert neighbor_bound(card, iter(cards)) == exact
                continue
            assert neighbor_bound(card, feed(cards, k)) > card, (card, cards)
            early += k < len(cards)
        assert early > 400  # coverage floor


class TestRegularize:
    def test_oversized_root_removal_gives_collapsed_structure(self):
        regular, log = regularize(two_branch_hierarchy(root_cardinality=3))
        assert structural_signature(regular) == structural_signature(
            collapsed_hierarchy()
        )
        assert [step.kind for step in log] == ["remove"]
        assert log[0].variable_name == "X1"

    def test_reference_hierarchies_are_fixpoints(self):
        for model in (two_branch_hierarchy(), collapsed_hierarchy()):
            regular, log = regularize(model)
            assert regular is model
            assert log == ()

    def test_latent_free_models_come_back_as_is(self):
        # effective_dimension regularizes every piece, latent-free ones too.
        edge = build_model([("A", 2, True), ("B", 3, True)], [("A", "B")])
        path = build_model(
            [("A", 2, True), ("B", 1, True), ("C", 4, True)],
            [("A", "B"), ("B", "C")],
        )
        for model in (edge, path):
            regular, log = regularize(model)
            assert regular is model
            assert log == ()

    def test_cardinality_reduction_to_bound(self):
        model = build_model(
            [("Z", 10, False), ("A", 3, True), ("B", 3, True), ("C", 3, True)],
            [("Z", "A"), ("Z", "B"), ("Z", "C")],
        )
        regular, log = regularize(model)
        assert regular.variable(0).cardinality == 9
        assert [(s.kind, s.old_cardinality, s.new_cardinality) for s in log] == [
            ("reduce", 10, 9)
        ]

    def test_regular_latent_of_degree_two_is_still_removed(self):
        # X is at its bound 2 * 3 // 3 = 2 between observed nodes, which
        # check_regular allows; the removal rule fires all the same.
        model = build_model(
            [("A", 2, True), ("X", 2, False), ("B", 3, True)],
            [("A", "X"), ("X", "B")],
        )
        assert check_regular(model) == []
        regular, log = regularize(model)
        assert [(s.kind, s.variable_name, s.joined) for s in log] == [
            ("remove", "X", (0, 2))
        ]
        assert regular.edges == ((0, 2),)
        result = effective_dimension(model, RankPolicy(trials=2))
        assert result.effective_dimension == 5
        assert oracle_effective_dimension(model, trials=2) == 5

    def test_removed_ids_are_retired(self):
        regular, _ = regularize(two_branch_hierarchy(root_cardinality=3))
        assert [v.id for v in regular.variables] == [1, 2, 3, 4, 5, 6, 7, 8]

    def test_idempotent_and_dimension_non_increasing(self):
        rng = random.Random(1337)
        for _ in range(40):
            model = random_tree_model(rng)
            regular, log = regularize(model)
            assert check_regular(regular) == []
            again, log2 = regularize(regular)
            assert again == regular and log2 == ()
            assert standard_dimension(regular) <= standard_dimension(model)
            if log and all(
                step.kind == "reduce"
                or model.variable(step.variable_id).cardinality >= 2
                for step in log
            ):
                # Strict drop unless the only rewrites removed vacuous
                # cardinality-1 latents.
                assert standard_dimension(regular) < standard_dimension(model)
