"""The worklist structure passes: equal to the old passes, one model built,
linear time, and scans that read the model's index directly."""

from __future__ import annotations

import ast
import random
import time
from pathlib import Path

import pytest

from support import (
    build_model,
    random_hlc_model,
    random_tree_model,
    reference_prune_latent_leaves,
    reference_regularize,
)
from treedim import RankPolicy, TreeModel, Variable, decompose, model
from treedim.decompose import effective_dimension, prune_latent_leaves
from treedim.model import regularize


def _path(specs) -> TreeModel:
    """(cardinality, observed) pairs joined in a path, ids in order."""
    names = [f"V{i}" for i in range(len(specs))]
    return build_model(
        [(name, card, observed) for name, (card, observed) in zip(names, specs)],
        list(zip(names, names[1:])),
    )


def latent_path(cards, ends=(2, 2)) -> TreeModel:
    """Observed A, latents of ``cards`` in a path, observed B."""
    return _path([(ends[0], True), *((c, False) for c in cards), (ends[1], True)])


def latent_tail(cards) -> TreeModel:
    """An observed pair, with a path of latents of ``cards`` hung off the second."""
    return _path([(2, True), (2, True), *((c, False) for c in cards)])


def latent_hub(cards, leaf=2, hub=2, ones=0) -> TreeModel:
    """A latent hub of ``hub`` states (id 0) over ``ones`` one-state observed
    leaves (the next ids) and latents of ``cards``, each with one observed
    leaf of ``leaf`` states."""
    n, m = len(cards), ones
    specs = [(hub, False), *[(1, True)] * m, *((c, False) for c in cards)]
    specs += [(leaf, True)] * n
    edges = [(0, i) for i in range(1, m + n + 1)]
    edges += [(i, i + n) for i in range(m + 1, m + n + 1)]
    variables = tuple(
        Variable(i, f"V{i}", card, observed) for i, (card, observed) in enumerate(specs)
    )
    return TreeModel(variables, tuple(edges))


def caterpillar(rng: random.Random, n: int) -> TreeModel:
    """A path of ``n`` latents of large random cardinality, each with 0-2
    observed leaves of 1-4 states: reductions expose removals and the
    reverse, and a spine end without leaves is a latent leaf."""
    specs = [(rng.randint(1, 40), False) for _ in range(n)]
    edges = [(i, i + 1) for i in range(n - 1)]
    for i in range(n):
        for _ in range(rng.choice((0, 1, 1, 2))):
            edges.append((i, len(specs)))
            specs.append((rng.randint(1, 4), True))
    if len(specs) == n:
        edges.append((0, n))
        specs.append((2, True))
    # shuffle the ids, so that the lowest acting id wanders along the spine
    perm = list(range(len(specs)))
    rng.shuffle(perm)
    variables = tuple(
        Variable(perm[i], f"V{perm[i]}", card, observed)
        for i, (card, observed) in enumerate(specs)
    )
    return TreeModel(variables, tuple((perm[a], perm[b]) for a, b in edges))


def adversarial_models():
    rng = random.Random(16)
    models = [latent_path([2] * n) for n in (1, 2, 7, 60)]
    for _ in range(20):
        models.append(latent_path([rng.randint(1, 9) for _ in range(40)], (3, 5)))
    models += [latent_tail([2] * n) for n in (1, 2, 7, 60)]
    models += [latent_tail([rng.randint(1, 9) for _ in range(30)]) for _ in range(10)]
    models += [caterpillar(rng, rng.randint(1, 40)) for _ in range(150)]
    models += [latent_hub([3] * n, leaf) for n in (1, 2, 7, 60) for leaf in (1, 2)]
    # one-state leaves read first: each re-check of the hub must skip them
    models += [latent_hub([3] * n, 2, 2, n) for n in (1, 2, 7, 60)]
    models += [latent_hub([3] * n, 1, 3, n) for n in (2, 7, 60)]
    for _ in range(20):
        cards = [rng.randint(1, 9) for _ in range(rng.randint(1, 60))]
        models.append(latent_hub(cards, rng.randint(1, 4), rng.randint(1, 12)))
    return models


def random_models():
    rng = random.Random(1616)
    models = [random_hlc_model(rng) for _ in range(100)]
    models += [
        random_tree_model(
            rng,
            max_vars=rng.randint(2, 30),
            max_latent=rng.randint(1, 25),
            max_card=rng.choice((2, 3, 5, 9)),
        )
        for _ in range(1500)
    ]
    return models


class TestEqualToTheReferencePasses:
    @pytest.mark.parametrize("models", [adversarial_models, random_models])
    def test_prune_model_and_log(self, models):
        removed = 0
        for tree in models():
            got = prune_latent_leaves(tree)
            assert got == reference_prune_latent_leaves(tree)
            assert got[1] or got[0] is tree
            removed += len(got[1])
        assert removed > 400  # coverage floor

    @pytest.mark.parametrize("models", [adversarial_models, random_models])
    def test_regularize_model_and_log(self, models):
        cascades = steps = 0
        for tree in models():
            for piece in (tree, prune_latent_leaves(tree)[0]):
                got = regularize(piece)
                assert got == reference_regularize(piece)
                assert got[1] or got[0] is piece
                steps += len(got[1])
                kinds = [step.kind for step in got[1]]
                cascades += ("reduce", "remove") in zip(kinds, kinds[1:])
        # coverage floors: many steps, and reductions right before a removal
        assert steps > 4000 and cascades > 200

    def test_regular_pieces_come_back_as_is(self):
        for tree in (latent_path([]), latent_tail([])):
            assert regularize(tree) == (tree, ())
            assert prune_latent_leaves(tree) == (tree, ())


class TestOneModelPerCall:
    def test_each_pass_builds_at_most_one_model(self, monkeypatch):
        built = []
        post_init = TreeModel.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        trees = adversarial_models()[::5] + random_models()[::20]
        monkeypatch.setattr(TreeModel, "__post_init__", counted)
        for tree in trees:
            for rewrite in (prune_latent_leaves, regularize):
                built.clear()
                out, log = rewrite(tree)
                assert len(built) == (1 if log else 0)
                assert not log or built[0] is out


class TestLinearTime:
    # Before the worklists, each prune layer and each regularize step
    # rebuilt the model: about 3 s at 2,000 latents, and minutes at 20,000.
    N = 20_000

    def test_effective_dimension_of_a_long_latent_path(self):
        tree = latent_path([2] * self.N)
        start = time.perf_counter()
        result = effective_dimension(tree, RankPolicy(trials=1))
        assert time.perf_counter() - start < 5
        assert result.effective_dimension == 3
        assert len(result.ledger.regularization_log) == self.N

    def test_regularize_of_a_latent_hub(self):
        # A binary hub re-checked after each removal of a ternary latent
        # neighbor: about 50 s at 20,000 when each check read every neighbor.
        tree = latent_hub([3] * self.N)
        start = time.perf_counter()
        regular, log = regularize(tree)
        assert time.perf_counter() - start < 5
        assert [step.kind for step in log] == ["remove"] * self.N
        assert regular.edges == tuple((0, i + self.N) for i in range(1, self.N + 1))

    def test_regularize_of_a_latent_hub_over_one_state_leaves(self):
        # One-state leaves at the lowest ids, read first by each re-check of
        # the hub: about 2.5 s at 4,000 when a check read past all of them.
        tree = latent_hub([3] * self.N, ones=self.N)
        start = time.perf_counter()
        regular, log = regularize(tree)
        assert time.perf_counter() - start < 5
        assert [step.kind for step in log] == ["remove"] * self.N
        assert len(regular.edges) == 2 * self.N

    def test_regularize_of_a_large_latent_hub_over_one_state_leaves(self):
        # When the hub's neighbors of two or more states were a set, it lost
        # its lowest ids one by one and each re-check walked the emptied
        # slots: about 2.4 s at this size, and 0.6 s with lists that drop
        # stale ids as read (shared 2-core VM).
        n = 32_000
        tree = latent_hub([3] * n, ones=n)
        start = time.perf_counter()
        regular, log = regularize(tree)
        assert time.perf_counter() - start < 1.2
        assert [step.kind for step in log] == ["remove"] * n
        assert len(regular.edges) == 2 * n

    def test_prune_of_a_long_latent_tail(self):
        tree = latent_tail([2] * self.N)
        start = time.perf_counter()
        pruned, removed = prune_latent_leaves(tree)
        assert time.perf_counter() - start < 5
        assert removed == tuple(range(self.N + 1, 1, -1))
        assert pruned.edges == ((0, 1),)


class TestLinearWork:
    """Deterministic work counts at n and 2n, beside TestLinearTime's clocks:
    a linear pass reads about twice as much at twice the size, whatever the
    machine's load, and a quadratic one about four times."""

    SIZES = (500, 1000, 2000)

    @staticmethod
    def _at_most_doubled(counts):
        return all(b <= 2.2 * a for a, b in zip(counts, counts[1:]))

    def test_regularize_reads_linearly_many_cardinalities(self, monkeypatch):
        # Each re-check of the hub reads its neighbors through model._cards,
        # which yields 5n - 2 cardinalities here and drops the stale ids it
        # meets: 5n + 3 lookups.  One that walked stale ids would count them.
        read = []

        class Lookups:
            def __init__(self, var):
                self.var = var

            def get(self, key):
                read.append(key)
                return self.var.get(key)

        cards = model._cards
        monkeypatch.setattr(model, "_cards", lambda ids, var: cards(ids, Lookups(var)))
        counts = []
        for n in self.SIZES:
            tree = latent_hub([3] * n, ones=n)
            read.clear()
            regularize(tree)
            counts.append(len(read))
        assert counts[0] >= self.SIZES[0] and self._at_most_doubled(counts), counts

    def test_prune_visits_linearly_many_nodes(self, monkeypatch):
        # A visit is a lookup of a node's neighbors in any model the pass
        # reads or builds; a pass that rebuilt the model per layer of the
        # tail would visit quadratically many.
        visits = []

        class Counted(dict):
            def __getitem__(self, key):
                visits.append(key)
                return dict.__getitem__(self, key)

            def get(self, key, default=None):
                visits.append(key)
                return dict.get(self, key, default)

        post_init = TreeModel.__post_init__

        def counted(self):
            post_init(self)
            self.__dict__["_adjacency"] = Counted(self._adjacency)

        monkeypatch.setattr(TreeModel, "__post_init__", counted)
        counts = []
        for n in self.SIZES:
            tree = latent_tail([2] * n)
            visits.clear()
            prune_latent_leaves(tree)
            counts.append(len(visits))
        assert counts[0] >= self.SIZES[0] and self._at_most_doubled(counts), counts


# The scans read model._by_id and model._adjacency: a per-node method call
# costs more than the lookup it wraps.
SCANS = {
    model: ("regularize", "check_regular"),
    decompose: (
        "prune_latent_leaves",
        "split_at_observed",
        "decompose_hlc",
    ),
}
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _functions(module, names):
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    found = {
        node.name: node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in names
    }
    assert sorted(found) == sorted(names)
    return found


def _calls(node):
    return [n for n in ast.walk(node) if isinstance(n, ast.Call)]


def test_scans_make_no_per_node_method_calls():
    methods = {"variable", "neighbors", "degree"}
    for module, names in SCANS.items():
        for name, function in _functions(module, names).items():
            used = [
                call.func.attr
                for call in _calls(function)
                if isinstance(call.func, ast.Attribute) and call.func.attr in methods
            ]
            assert used == [], name


def test_rewrites_build_their_model_outside_loops():
    def builds(node):
        return [
            call
            for call in _calls(node)
            if isinstance(call.func, ast.Name) and call.func.id == "TreeModel"
        ]

    functions = {
        **_functions(model, ["regularize"]),
        **_functions(decompose, ["prune_latent_leaves"]),
    }
    for name, function in functions.items():
        assert len(builds(function)) == 1, name
        loops = [n for n in ast.walk(function) if isinstance(n, LOOPS)]
        assert [b for loop in loops for b in builds(loop)] == [], name
