"""Decomposition pipeline: pruning, splitting, components, assembly."""

from __future__ import annotations

import random
from collections import Counter
from pathlib import Path

import pytest

from support import (
    build_model,
    collapsed_hierarchy,
    latent_class_model,
    random_hlc_model,
    random_tree_model,
    reference_decomposition,
    reference_split_at_observed,
    two_branch_hierarchy,
)
from treedim import (
    RankPolicy,
    decompose,
    rank,
    effective_dimension,
    oracle_effective_dimension,
)
from treedim.decompose import (
    DecompositionLedger,
    LcComponent,
    Term,
    combine,
    decompose_hlc,
    prune_latent_leaves,
    split_at_observed,
)
from treedim.iface import parse_model
from treedim.model import check_regular, regularize, standard_dimension

FIXTURES = Path(__file__).parent / "fixtures"


def empty_ledger(components=(), latent_edges=(), cuts=(), free_parts=()):
    return DecompositionLedger(
        lc_components=tuple(components),
        latent_edge_corrections=tuple(latent_edges),
        observed_cut_corrections=tuple(cuts),
        latent_free_parts=tuple(free_parts),
        pruned_latent_leaves=(),
        regularization_log=(),
    )


def dummy_components(count):
    return tuple(
        LcComponent(i, 2, ((100 + i, 2),)) for i in range(count)
    )


class TestPruneLatentLeaves:
    def test_single_latent_leaf_removed(self):
        model = build_model(
            [("Y", 2, True), ("Z", 2, True), ("L", 3, False)],
            [("Y", "Z"), ("Y", "L")],
        )
        pruned, removed = prune_latent_leaves(model)
        assert removed == (2,)
        assert [v.name for v in pruned.variables] == ["Y", "Z"]

    def test_latent_chain_removed_iteratively(self):
        model = build_model(
            [("A", 2, True), ("B", 2, True), ("L1", 2, False), ("L2", 3, False)],
            [("A", "B"), ("A", "L1"), ("L1", "L2")],
        )
        pruned, removed = prune_latent_leaves(model)
        assert removed == (3, 2)
        assert [v.name for v in pruned.variables] == ["A", "B"]

    def test_hierarchy_with_observed_leaves_unchanged(self):
        model = two_branch_hierarchy()
        pruned, removed = prune_latent_leaves(model)
        assert pruned is model
        assert removed == ()


class TestSplitAtObserved:
    def test_chain_with_observed_middle(self):
        model = build_model(
            [
                ("Y1", 3, True),
                ("X", 2, False),
                ("Y2", 4, True),
                ("Z", 2, False),
                ("Y3", 3, True),
            ],
            [("Y1", "X"), ("X", "Y2"), ("Y2", "Z"), ("Z", "Y3")],
        )
        corrections, parts = split_at_observed(model)
        assert [(c.ids, c.amount) for c in corrections] == [((2,), 3)]
        assert parts == ()

    def test_no_observed_internal_node_has_nothing_to_count(self):
        assert split_at_observed(two_branch_hierarchy()) == ((), ())

    def test_edgeless_model_is_one_latent_free_part(self):
        model = build_model([("Y", 5, True)], [])
        assert split_at_observed(model) == ((), (Term((0,), 4),))

    def test_observed_hub_with_three_branches(self):
        specs = [("H", 2, True)]
        edges = []
        for i in range(3):
            specs += [(f"L{i}", 2, False), (f"A{i}", 3, True), (f"B{i}", 3, True)]
            edges += [("H", f"L{i}"), (f"L{i}", f"A{i}"), (f"L{i}", f"B{i}")]
        model = build_model(specs, edges)
        corrections, parts = split_at_observed(model)
        assert [(c.ids, c.amount) for c in corrections] == [((0,), 2)]
        assert parts == ()

    def test_adjacent_observed_internal_nodes_give_latent_free_part(self):
        # a bare Y1-Y2 edge plus one latent branch off each end
        model = build_model(
            [
                ("Y1", 2, True),
                ("Y2", 3, True),
                ("L1", 2, False),
                ("A", 2, True),
                ("B", 2, True),
                ("L2", 2, False),
                ("C", 2, True),
                ("D", 2, True),
            ],
            [
                ("Y1", "Y2"),
                ("Y1", "L1"),
                ("L1", "A"),
                ("L1", "B"),
                ("Y2", "L2"),
                ("L2", "C"),
                ("L2", "D"),
            ],
        )
        corrections, parts = split_at_observed(model)
        assert [(c.ids, c.amount) for c in corrections] == [((0,), 1), ((1,), 2)]
        assert parts == (Term((0, 1), 5),)  # the bare Y1-Y2 edge


class TestDecomposeHlc:
    def test_two_branch_hierarchy_components(self):
        components, corrections = decompose_hlc(two_branch_hierarchy())
        assert [
            (c.latent_id, c.latent_cardinality, tuple(card for _, card in c.neighbors))
            for c in components
        ] == [(0, 2, (3, 3)), (1, 3, (2, 3, 3, 3)), (2, 3, (2, 3, 3, 3))]
        assert [(c.ids, c.amount) for c in corrections] == [
            ((0, 1), 5),
            ((0, 2), 5),
        ]

    def test_corrections_follow_the_sorted_latent_edges(self):
        # One correction per latent-latent edge, in the model's edge order,
        # on regular hierarchies whose latent and observed ids interleave.
        rng = random.Random(4242)
        for _ in range(20):
            hubs = rng.randint(2, 6)
            specs = [(f"H{i}", rng.randint(2, 3), False) for i in range(hubs)]
            edges = [(f"H{rng.randrange(i)}", f"H{i}") for i in range(1, hubs)]
            for i in range(hubs):
                for j in range(rng.randint(2, 3)):
                    specs.append((f"Y{i}.{j}", 3, True))
                    edges.append((f"H{i}", f"Y{i}.{j}"))
            rng.shuffle(specs)
            hlc = build_model(specs, edges)
            latent = {v.id for v in hlc.latent_variables}
            card = {v.id: v.cardinality for v in hlc.variables}
            expected = [
                ((a, b), card[a] * card[b] - 1)
                for a, b in hlc.edges
                if a in latent and b in latent
            ]
            _, corrections = decompose_hlc(hlc)
            assert len(expected) == hubs - 1
            assert [(c.ids, c.amount) for c in corrections] == expected

    def test_single_latent_has_no_corrections(self):
        components, corrections = decompose_hlc(latent_class_model(3, (2, 2, 2)))
        assert len(components) == 1
        assert corrections == ()


class TestCombine:
    def test_five_component_assembly(self):
        ledger = empty_ledger(
            components=dummy_components(5),
            latent_edges=tuple(
                Term((i, i + 1), k)
                for i, k in enumerate((14, 17, 17, 14))
            ),
        )
        assert combine((26, 23, 23, 34, 17), ledger) == 61

    def test_reference_hierarchy_assembly(self):
        ledger = empty_ledger(
            components=dummy_components(3),
            latent_edges=(
                Term((0, 1), 5),
                Term((0, 2), 5),
            ),
        )
        assert combine((7, 23, 23), ledger) == 43

    def test_single_component_identity(self):
        ledger = empty_ledger(components=dummy_components(1))
        assert combine((17,), ledger) == 17


class TestEffectiveDimension:
    def test_two_branch_hierarchy(self):
        result = effective_dimension(two_branch_hierarchy())
        assert result.standard_dimension == 45
        assert result.effective_dimension == 43
        assert result.component_dimensions == (7, 23, 23)

    def test_collapsed_hierarchy(self):
        result = effective_dimension(collapsed_hierarchy())
        assert result.standard_dimension == 44
        assert result.effective_dimension == 44

    def test_fully_observed_tree_saturates(self):
        rng = random.Random(31)
        for _ in range(10):
            model = random_tree_model(rng, max_vars=6, max_latent=0)
            result = effective_dimension(model, RankPolicy(trials=1))
            assert result.effective_dimension == result.standard_dimension

    @pytest.mark.parametrize("latent", [False, True])
    def test_zero_trials_are_refused_with_or_without_a_latent(self, latent):
        # The policy is checked before any stage, not by the first rank call.
        if latent:
            model = latent_class_model(2, (2, 2, 2))
        else:
            model = build_model([("A", 2, True), ("B", 3, True)], [("A", "B")])
        with pytest.raises(ValueError, match="^trials must be >= 1$"):
            effective_dimension(model, RankPolicy(trials=0))

    def test_a_policy_past_the_trials_cap_is_refused_when_built(self):
        # One check serves the policy, the CLI that builds it and the oracle.
        message = f"^trials must be <= {rank.MAX_TRIALS}$"
        for trials in (rank.MAX_TRIALS + 1, 10**20):
            with pytest.raises(ValueError, match=message):
                RankPolicy(trials=trials)
        model = latent_class_model(2, (2, 2, 2))
        result = effective_dimension(model, RankPolicy(trials=rank.MAX_TRIALS))
        assert result.component_trial_ranks == ((7,) * rank.MAX_TRIALS,)

    def test_ledger_counts_match_structure(self):
        result = effective_dimension(two_branch_hierarchy())
        ledger = result.ledger
        assert len(ledger.lc_components) == 3  # one per latent node
        assert len(ledger.latent_edge_corrections) == 2  # one per latent edge
        assert ledger.pruned_latent_leaves == ()
        assert ledger.observed_cut_corrections == ()

    def test_one_state_latent_is_ranked_without_a_draw(self, monkeypatch):
        # A(300) - L(1) - B(7): regularize keeps L, whose component's rank
        # is its parameter count, 299 + 6, with no point drawn.
        def no_draw(component, rng):
            raise AssertionError("a parameter point was drawn")

        monkeypatch.setattr(rank, "sample_lc_point", no_draw)
        model = build_model(
            [("A", 300, True), ("L", 1, False), ("B", 7, True)],
            [("A", "L"), ("L", "B")],
        )
        result = effective_dimension(model)
        assert result.component_trial_ranks == ((305,) * 3,)
        assert result.effective_dimension == result.standard_dimension == 305

    def test_pipeline_handles_collapse_to_latent_free(self):
        # Both latents get removed by regularization, leaving bare edges.
        model = build_model(
            [("Y1", 2, True), ("L1", 2, False), ("L2", 2, False), ("Y2", 2, True)],
            [("Y1", "L1"), ("L1", "L2"), ("L2", "Y2")],
        )
        result = effective_dimension(model, RankPolicy(trials=1))
        assert result.effective_dimension == 3
        assert result.ledger.lc_components == ()
        assert len(result.ledger.latent_free_parts) == 1

    def test_matches_oracle_on_assorted_hand_models(self):
        hand_models = [
            # latent chain with observed spine
            build_model(
                [
                    ("Y1", 3, True),
                    ("X", 2, False),
                    ("Y2", 3, True),
                    ("Z", 3, False),
                    ("Y3", 2, True),
                    ("Y4", 2, True),
                ],
                [
                    ("Y1", "X"),
                    ("X", "Y2"),
                    ("Y2", "Z"),
                    ("Z", "Y3"),
                    ("Z", "Y4"),
                ],
            ),
            # three-level latent hierarchy
            build_model(
                [
                    ("T", 2, False),
                    ("U", 2, False),
                    ("V", 2, False),
                    ("A", 2, True),
                    ("B", 2, True),
                    ("C", 2, True),
                    ("D", 2, True),
                ],
                [
                    ("T", "U"),
                    ("T", "V"),
                    ("U", "A"),
                    ("U", "B"),
                    ("V", "C"),
                    ("V", "D"),
                ],
            ),
            # latent leaves to prune plus an observed cut
            build_model(
                [
                    ("Y1", 2, True),
                    ("H", 3, True),
                    ("L", 2, False),
                    ("Y2", 3, True),
                    ("D1", 3, False),
                    ("D2", 2, False),
                ],
                [
                    ("Y1", "H"),
                    ("H", "L"),
                    ("L", "Y2"),
                    ("H", "D1"),
                    ("D1", "D2"),
                ],
            ),
        ]
        for i, model in enumerate(hand_models):
            result = effective_dimension(model, RankPolicy(trials=2, seed=i))
            assert result.effective_dimension == oracle_effective_dimension(
                model, trials=2, seed=i
            )

    def test_stage_invariants_on_random_models(self):
        # Pruning and per-piece regularization each preserve the oracle
        # dimension; the piece count matches the latent structure.
        rng = random.Random(8080)
        checked = 0
        for i in range(12):
            model = random_tree_model(rng, max_vars=6)
            pruned, _ = prune_latent_leaves(model)
            assert oracle_effective_dimension(
                model, trials=1, seed=i
            ) == oracle_effective_dimension(pruned, trials=1, seed=i)
            checked += 1
        assert checked == 12

    def test_deterministic_for_seed(self):
        model = two_branch_hierarchy()
        a = effective_dimension(model, RankPolicy(trials=3, seed=9))
        b = effective_dimension(model, RankPolicy(trials=3, seed=9))
        assert a == b

    def test_bounded_by_dimension_and_joint_size(self):
        rng = random.Random(4242)
        for i in range(20):
            model = random_tree_model(rng, max_vars=7)
            result = effective_dimension(model, RankPolicy(trials=1, seed=i))
            joint = 1
            for v in model.observed_variables:
                joint *= v.cardinality
            assert result.effective_dimension <= min(
                result.standard_dimension, joint - 1
            )

    def test_component_count_matches_latent_structure(self):
        rng = random.Random(2024)
        for i in range(15):
            model = random_tree_model(rng, max_vars=7)
            result = effective_dimension(model, RankPolicy(trials=1, seed=i))
            ledger = result.ledger
            # reconstruct the pruned, regularized latent set from the ledger
            regular, _ = regularize(prune_latent_leaves(model)[0])
            expected_latents = {v.id for v in regular.latent_variables}
            expected_edges = sum(
                1
                for a, b in regular.edges
                if not regular.variable(a).observed and not regular.variable(b).observed
            )
            assert {c.latent_id for c in ledger.lc_components} == expected_latents
            assert len(ledger.latent_edge_corrections) == expected_edges


class TestStagePreconditions:
    """The stages after pruning check nothing, as every model is valid by
    construction: the pipeline hands each one what the stage before it
    guarantees."""

    def test_each_stage_gets_what_the_one_before_guarantees(self, monkeypatch):
        real_regularize = decompose.regularize
        real_split = decompose.split_at_observed
        real_decompose = decompose.decompose_hlc
        real_combine = decompose.combine
        calls = []
        seen = {"cut": 0, "rewritten": 0, "multi-latent": 0}

        def check_pruned_and_regular(model):
            adjacency = model._adjacency
            for v in model.latent_variables:
                assert len(adjacency[v.id]) >= 2, "latent leaf after pruning"
            assert check_regular(model) == []

        def regularize_tree(pruned):
            calls.append("regularize")
            regular, steps = real_regularize(pruned)
            seen["rewritten"] += regular is not pruned
            return regular, steps

        def split(model):
            calls.append("split")
            check_pruned_and_regular(model)
            corrections, parts = real_split(model)
            seen["cut"] += bool(corrections)
            return corrections, parts

        def decompose_tree(model):
            calls.append("decompose")
            check_pruned_and_regular(model)
            seen["multi-latent"] += len(model.latent_variables) > 1
            return real_decompose(model)

        def combine(dims, ledger):
            calls.append("combine")
            assert len(dims) == len(ledger.lc_components)
            assert all(type(d) is int and d >= 0 for d in dims)
            return real_combine(dims, ledger)

        monkeypatch.setattr(decompose, "regularize", regularize_tree)
        monkeypatch.setattr(decompose, "split_at_observed", split)
        monkeypatch.setattr(decompose, "decompose_hlc", decompose_tree)
        monkeypatch.setattr(decompose, "combine", combine)
        # The piece-by-piece pipeline cut the hub into three pieces.
        hub = parse_model((FIXTURES / "hub.model").read_text())
        assert len(reference_split_at_observed(prune_latent_leaves(hub)[0])[0]) == 3
        rng = random.Random(1919)
        models = [hub] + [random_hlc_model(rng) for _ in range(60)]
        models += [
            random_tree_model(
                rng,
                max_vars=rng.randint(2, 14),
                max_latent=rng.randint(1, 8),
                max_card=rng.choice((2, 3, 5, 9)),
            )
            for _ in range(500)
        ]
        for i, model in enumerate(models):
            calls.clear()
            effective_dimension(model, RankPolicy(trials=1, seed=i))
            # each stage once per model, on the whole tree, never per piece
            assert calls == ["regularize", "split", "decompose", "combine"]
        # coverage floors: cut trees, regularized trees, latent-latent edges
        assert seen["cut"] > 150 and seen["rewritten"] > 30
        assert seen["multi-latent"] > 50


class TestReferenceDecomposition:
    def test_whole_tree_ledger_equals_the_piece_by_piece_one(self, monkeypatch):
        # Every latent's neighbors lie in its own piece, so regularizing and
        # decomposing the whole pruned tree reads and rewrites the same
        # values as doing it piece by piece; only the log order can differ.
        real = decompose.lc_rank_trials
        ranks = {}  # one policy for every model: memoize ranks across them

        def memoized(component, trials, seed):
            key = (component.latent_cardinality, component.neighbors, trials, seed)
            if key not in ranks:
                ranks[key] = real(component, trials, seed)
            return ranks[key]

        monkeypatch.setattr(decompose, "lc_rank_trials", memoized)
        rng = random.Random(7)
        seen = {"cut": 0, "free": 0, "reordered": 0}
        for i in range(2000):
            if i % 2:
                model = random_hlc_model(rng)
            else:
                model = random_tree_model(
                    rng,
                    max_vars=rng.randint(1, 14),
                    max_latent=rng.randint(1, 8),
                    max_card=rng.choice((2, 3, 5, 9)),
                )
            result = effective_dimension(model, RankPolicy(trials=1))
            ledger, reference = result.ledger, reference_decomposition(model)
            assert result.standard_dimension == standard_dimension(model)
            assert result.effective_dimension == combine(
                result.component_dimensions, reference
            )
            for field in (
                "lc_components",
                "latent_edge_corrections",
                "observed_cut_corrections",
                "latent_free_parts",
                "pruned_latent_leaves",
            ):
                assert getattr(ledger, field) == getattr(reference, field), (i, field)
            log = ledger.regularization_log
            assert Counter(log) == Counter(reference.regularization_log)
            assert log == regularize(prune_latent_leaves(model)[0])[1]
            seen["cut"] += bool(ledger.observed_cut_corrections)
            seen["free"] += bool(ledger.latent_free_parts)
            seen["reordered"] += log != reference.regularization_log
        assert seen["cut"] > 500 and seen["free"] > 500 and seen["reordered"] > 0


def _signature(component):
    cards = tuple(sorted(card for _, card in component.neighbors))
    return component.latent_cardinality, cards


def _reversed_declarations(model):
    names = {v.id: v.name for v in model.variables}
    return build_model(
        [(v.name, v.cardinality, v.observed) for v in reversed(model.variables)],
        [(names[a], names[b]) for a, b in model.edges],
    )


def _trials_by_signature(result):
    return sorted(
        zip(map(_signature, result.ledger.lc_components), result.component_trial_ranks)
    )


class TestRankMemo:
    @pytest.fixture
    def rank_calls(self, monkeypatch):
        """Record each component ranked; its trial ranks end with its seed."""
        calls = []
        real = decompose.lc_rank_trials

        def trials_with_seed(component, trials, seed):
            calls.append(component)
            return real(component, trials, seed) + (seed,)

        monkeypatch.setattr(decompose, "lc_rank_trials", trials_with_seed)
        return calls

    def test_chain_ranks_each_signature_once(self, rank_calls):
        k = 12
        specs = [(f"Z{i}", 2, False) for i in range(k)]
        specs += [(f"Y{i}{s}", 2, True) for i in range(k) for s in "ab"]
        edges = [(f"Z{i}", f"Z{i + 1}") for i in range(k - 1)]
        edges += [(f"Z{i}", f"Y{i}{s}") for i in range(k) for s in "ab"]
        result = effective_dimension(build_model(specs, edges), RankPolicy(trials=2))
        components = result.ledger.lc_components
        assert len(components) == k
        # The two ends have three neighbors, the middle latents four.
        signatures = {_signature(c) for c in components}
        assert signatures == {(2, (2, 2, 2)), (2, (2, 2, 2, 2))}
        assert len(rank_calls) == 2
        assert all(
            [card for _, card in c.neighbors] == sorted(card for _, card in c.neighbors)
            for c in rank_calls
        )

    def test_equal_signatures_get_equal_trial_ranks(self, rank_calls):
        # H and L share the signature (2, (2, 2, 3)) with their neighbors
        # in different orders; K hangs off the observed node B.
        specs = [
            ("A", 2, True), ("H", 2, False), ("B", 3, True), ("L", 2, False),
            ("C", 3, True), ("D", 2, True), ("K", 3, False), ("E", 3, True),
            ("F", 3, True),
        ]
        edges = [
            ("H", "A"), ("H", "B"), ("H", "L"), ("L", "C"), ("L", "D"),
            ("K", "B"), ("K", "E"), ("K", "F"),
        ]
        policy = RankPolicy(trials=2, seed=5)
        first = effective_dimension(build_model(specs, edges), policy)
        shuffled = specs[3:] + specs[:3]
        second = effective_dimension(build_model(shuffled, edges), policy)
        for result in (first, second):
            by_signature = {}
            for sig, ranks in _trials_by_signature(result):
                assert by_signature.setdefault(sig, ranks) == ranks
            assert len(by_signature) == 2
        assert _trials_by_signature(first) == _trials_by_signature(second)
        assert len(rank_calls) == 4

    def test_reversed_declarations_give_the_same_result(self):
        rng = random.Random(31)
        models = [two_branch_hierarchy(), collapsed_hierarchy()]
        models += [random_tree_model(rng, max_vars=7) for _ in range(10)]
        for i, model in enumerate(models):
            policy = RankPolicy(trials=2, seed=i)
            a = effective_dimension(model, policy)
            b = effective_dimension(_reversed_declarations(model), policy)
            assert (a.standard_dimension, a.effective_dimension) == (
                b.standard_dimension,
                b.effective_dimension,
            )
            if not a.ledger.regularization_log and not b.ledger.regularization_log:
                assert _trials_by_signature(a) == _trials_by_signature(b)


class TestLiteratureLcDimensions:
    def test_binary_leaves(self):
        # c classes over n binary leaves: de = min(c(n+1) - 1, 2**n - 1),
        # but 13 at n = 4, c = 3 (Geiger, Heckerman, King & Meek 2001;
        # Catalisano, Geramita & Gimigliano 2011).  A check that shares no
        # code with the oracle; c > 2**(n-1) goes through regularization.
        for n in range(3, 11):
            for c in range(1, 9):
                model = latent_class_model(c, (2,) * n)
                result = effective_dimension(model, RankPolicy(trials=2))
                expected = 13 if (n, c) == (4, 3) else min(c * (n + 1), 2**n) - 1
                assert result.effective_dimension == expected, (n, c)
