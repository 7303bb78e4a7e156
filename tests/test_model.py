"""Model validation, standard dimension, regularity, regularization."""

from __future__ import annotations

import random

import pytest

from support import (
    build_model,
    collapsed_hierarchy,
    random_tree_model,
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
from treedim.model import check_regular, regularize, standard_dimension, validate


class TestTreeModel:
    def test_neighbors_ascending_whatever_the_construction_order(self):
        vs = tuple(Variable(i, f"V{i}", 2, True) for i in range(5))
        edges = [(2, 0), (4, 2), (2, 1), (3, 2)]
        for order in (edges, edges[::-1], [(b, a) for a, b in edges]):
            model = TreeModel(vs[::-1], tuple(order))
            assert model.variables == vs
            assert model.neighbors(2) == (0, 1, 3, 4)
            assert model.neighbors(4) == (2,)
            assert model.degree(2) == 4

    def test_unknown_variable_id_raises_key_error(self):
        model = two_branch_hierarchy()
        assert model.variable(4).name == "Y2"
        with pytest.raises(KeyError, match="unknown variable id 99"):
            model.variable(99)
        assert model.neighbors(99) == ()


class TestValidate:
    def test_reference_hierarchy_is_valid(self):
        assert validate(two_branch_hierarchy()) == []

    def test_two_nodes_no_edges_is_disconnected(self):
        model = build_model([("A", 2, True), ("B", 2, True)], [])
        assert any("disconnected" in e for e in validate(model))

    def test_all_latent_is_rejected(self):
        model = build_model([("A", 2, False), ("B", 2, False)], [("A", "B")])
        assert any("no observed variable" in e for e in validate(model))

    def test_bad_cardinality(self):
        model = build_model([("A", 0, True)], [])
        assert any("cardinality" in e for e in validate(model))

    def test_self_loop_and_duplicate_edge(self):
        vs = (Variable(0, "A", 2, True), Variable(1, "B", 2, True))
        loop = TreeModel(vs, ((0, 0), (0, 1)))
        assert any("self-loop" in e for e in validate(loop))
        dup = TreeModel(vs, ((0, 1), (1, 0)))
        assert any("duplicate edge" in e for e in validate(dup))

    def test_cycle_is_rejected(self):
        vs = tuple(Variable(i, f"V{i}", 2, True) for i in range(3))
        cyc = TreeModel(vs, ((0, 1), (1, 2), (0, 2)))
        assert validate(cyc)

    def test_unknown_edge_endpoint(self):
        model = TreeModel((Variable(0, "A", 2, True),), ((0, 5),))
        assert any("unknown variable id" in e for e in validate(model))

    def test_duplicate_names(self):
        vs = (Variable(0, "A", 2, True), Variable(1, "A", 2, True))
        assert any("duplicate variable name" in e for e in validate(TreeModel(vs, ((0, 1),))))

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
            assert validate(TreeModel(vs, edges)) == errors, edges
        dup_id = (Variable(0, "A", 2, True), Variable(0, "B", 2, False))
        assert validate(TreeModel(dup_id, ((0, 0),))) == [
            "duplicate variable id 0",
            "self-loop at variable id 0",
        ]


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
