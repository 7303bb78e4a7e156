"""Shared model builders for the test suite."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from operator import mul
from typing import Sequence

from treedim import TreeModel, Variable
from treedim.model import standard_dimension
from treedim.oracle import (
    _full_tables,
    _inside,
    _weights,
    observed_joint_jacobian,
    sample_full_point,
)
from treedim.rank import PRIME, derive_seed, exact_rank, field_draws, lc_jacobian_at


def build_model(var_specs, edges) -> TreeModel:
    """Build a model from (name, cardinality, observed) triples and name pairs."""
    variables = tuple(
        Variable(i, name, card, observed)
        for i, (name, card, observed) in enumerate(var_specs)
    )
    ids = {v.name: v.id for v in variables}
    return TreeModel(variables, tuple((ids[a], ids[b]) for a, b in edges))


def two_branch_hierarchy(root_cardinality: int = 2) -> TreeModel:
    """Nine-variable hierarchy: a root over two latent hubs, three ternary
    leaves each.  With a binary root: ds 45, de 43."""
    return build_model(
        [("X1", root_cardinality, False), ("X2", 3, False), ("X3", 3, False)]
        + [(f"Y{i}", 3, True) for i in range(1, 7)],
        [
            ("X1", "X2"),
            ("X1", "X3"),
            ("X2", "Y1"),
            ("X2", "Y2"),
            ("X2", "Y3"),
            ("X3", "Y4"),
            ("X3", "Y5"),
            ("X3", "Y6"),
        ],
    )


def collapsed_hierarchy() -> TreeModel:
    """Eight-variable hierarchy: two adjacent latent hubs, three ternary
    leaves each.  ds 44, de 44."""
    return build_model(
        [("X2", 3, False), ("X3", 3, False)]
        + [(f"Y{i}", 3, True) for i in range(1, 7)],
        [
            ("X2", "Y1"),
            ("X2", "Y2"),
            ("X2", "Y3"),
            ("X2", "X3"),
            ("X3", "Y4"),
            ("X3", "Y5"),
            ("X3", "Y6"),
        ],
    )


def latent_class_model(latent_card: int, leaf_cards) -> TreeModel:
    """One latent hub with observed leaves."""
    specs = [("Z", latent_card, False)] + [
        (f"Y{i}", card, True) for i, card in enumerate(leaf_cards)
    ]
    edges = [("Z", f"Y{i}") for i in range(len(leaf_cards))]
    return build_model(specs, edges)


def random_tree_model(
    rng: random.Random, max_vars: int = 7, max_latent: int = 3, max_card: int = 3
) -> TreeModel:
    """Random valid tree with cards <= max_card and at most max_latent latent nodes."""
    n = rng.randint(1, max_vars)
    cards = []
    latent = []
    for _ in range(n):
        cards.append(
            rng.randint(1, max_card) if rng.random() < 0.2 else rng.randint(2, max_card)
        )
        latent.append(rng.random() < 0.45)
    latent_idx = [i for i, flag in enumerate(latent) if flag]
    while len(latent_idx) > max_latent:
        latent[latent_idx.pop(rng.randrange(len(latent_idx)))] = False
    if all(latent):
        latent[rng.randrange(n)] = False
    variables = tuple(
        Variable(i, f"V{i}", cards[i], not latent[i]) for i in range(n)
    )
    edges = tuple((rng.randrange(i), i) for i in range(1, n))
    return TreeModel(variables, edges)


def random_hlc_model(rng: random.Random) -> TreeModel:
    """Random hierarchical latent class (HLC) shaped tree.

    A random skeleton of 2-6 latents of cardinality 2-4; about one
    skeleton edge in six runs through an observed node of cardinality 2-3,
    so the split step has work too.  Each latent then gets observed
    leaves of cardinality 2-3, mostly enough to reach degree 3, though
    one latent in five may stop short of it (and be regularized away).
    """
    specs = [(f"H{i}", rng.randint(2, 4), False) for i in range(rng.randint(2, 6))]
    edges = []
    for i in range(1, len(specs)):
        a, b = f"H{rng.randrange(i)}", f"H{i}"
        if rng.random() < 1 / 6:
            specs.append((f"O{i}", rng.randint(2, 3), True))
            edges += [(a, f"O{i}"), (f"O{i}", b)]
        else:
            edges.append((a, b))
    for i in range(len(specs)):
        name, _, observed = specs[i]
        if observed:
            continue
        degree = sum(name in edge for edge in edges)
        short = rng.random() < 0.2
        for j in range(max(3 - degree - short, 0) + rng.randint(0, 1)):
            specs.append((f"Y{name}_{j}", rng.randint(2, 3), True))
            edges.append((name, f"Y{name}_{j}"))
    return build_model(specs, edges)


def structural_signature(model: TreeModel):
    """Name-based structure, independent of variable ids."""
    names = {v.id: v.name for v in model.variables}
    return (
        frozenset((v.name, v.cardinality, v.observed) for v in model.variables),
        frozenset(frozenset((names[a], names[b])) for a, b in model.edges),
    )


def reference_rank(rows) -> int:
    """Rank over GF(PRIME) by plain row reduction, one entry at a time.

    The list-based elimination ``treedim.rank.exact_rank`` replaced; each
    pivot row is normalised to a leading 1.
    """
    n = len(rows[0]) if rows else 0
    basis: dict[int, list[int]] = {}
    for vec in rows:
        for lead in range(n):
            f = vec[lead] % PRIME
            if not f:
                continue
            pivot = basis.get(lead)
            if pivot is None:
                inv = pow(f, -1, PRIME)
                basis[lead] = [x * inv % PRIME for x in vec]
                break
            vec = [a - f * b for a, b in zip(vec, pivot)]
    return len(basis)


def residues(values: Sequence[Fraction | int]) -> list[int]:
    """Exact images ``a * b**-1 mod PRIME`` of the rationals ``a/b``.

    One lcm of the denominators and one modular inverse serve them all.
    """
    den = math.lcm(*[x.denominator for x in values])
    if den % PRIME == 0:
        raise ValueError(f"denominator {den} is divisible by the field prime 2**61-1")
    inv = pow(den, -1, PRIME)
    return [x.numerator * (den // x.denominator) * inv % PRIME for x in values]


def rooted_standard_dimension(model: TreeModel, root: int) -> int:
    """Free parameters of the conditional tables of the model rooted at
    ``root``, counted by a depth-first walk: ``(|root| - 1)`` plus
    ``|parent| * (|child| - 1)`` over every parent-child edge."""
    card = {v.id: v.cardinality for v in model.variables}
    total = card[root] - 1
    seen = {root}
    stack = [root]
    while stack:
        parent = stack.pop()
        for child in model.neighbors(parent):
            if child not in seen:
                seen.add(child)
                stack.append(child)
                total += card[parent] * (card[child] - 1)
    return total


def _reference_times(a, b):
    return [[x * y % PRIME for x, y in zip(ax, bx)] for ax, bx in zip(a, b)]


def reference_inside(order, children, tables, weights, k):
    """Inside vectors and upward messages, one list entry per functional.

    The list-based inside pass ``treedim.oracle._inside`` replaced:
    ``beta[v][x][j]`` is functional ``j``'s weight of ``v`` at ``x`` (one for
    a latent ``v``) times the children's messages at ``x``, and
    ``up[v][p][j] = sum_x tables[v][p][x] * beta[v][x][j] mod PRIME``.
    """
    beta, up = {}, {}
    for v in reversed(order):
        b = weights[v] if v in weights else [[1] * k] * len(tables[v][0])
        for c in children[v]:
            b = _reference_times(b, up[c])
        beta[v] = b
        per_functional = list(zip(*b))
        up[v] = [
            [sum(map(mul, row, bj)) % PRIME for bj in per_functional]
            for row in tables[v]
        ]
    return beta, up


def reference_gradient(order, children, tables, weights, beta, up, k):
    """Gradient columns of every variable, block by block, entry by entry.

    The list-based outside pass ``treedim.oracle._gradient`` replaced:
    ``outer[v][p][j]`` is the weight outside ``v``'s subtree and table at
    parent state ``p``, and a free weight's column is
    ``outer[v][p] * (beta[v][x] - beta[v][last])``.
    """
    outer = {order[0]: [[1] * k]}
    grad = {}
    for v in order:
        b, out = beta[v], outer[v]
        grad[v] = [
            [o * (x - y) % PRIME for o, x, y in zip(ox, bx, b[-1])]
            for ox in out
            for bx in b[:-1]
        ]
        kids = children[v]
        if not kids:
            continue
        per_functional = list(zip(*out))
        down = [
            [sum(map(mul, col, oj)) % PRIME for oj in per_functional]
            for col in zip(*tables[v])
        ]
        if v in weights:
            down = _reference_times(down, weights[v])
        rest = [[[1] * k] * len(b)]  # rest[i]: product of the last i kids' messages
        for c in reversed(kids[1:]):
            rest.append(_reference_times(rest[-1], up[c]))
        for c in kids:
            outer[c] = _reference_times(down, rest.pop())
            down = _reference_times(down, up[c])
    return grad


def all_states(cards: Sequence[int]) -> list[tuple[int, ...]]:
    """Every joint state over the given cardinalities, in lexicographic order."""
    return list(itertools.product(*(range(card) for card in cards)))


def indicator_weights(observed, states=None):
    """Weight tables of the indicator functionals of ``states``, by default
    every joint state of the observed variables: ``tables[i][x][j]`` is 1
    when state ``j`` puts observed variable ``i`` at ``x``, else 0."""
    if states is None:
        states = all_states([v.cardinality for v in observed])
    return [
        [[int(s[i] == x) for s in states] for x in range(v.cardinality)]
        for i, v in enumerate(observed)
    ]


def jacobian_weights(observed):
    """The indicator functionals of every observed joint state but the
    lexicographically last: their gradients are the rows of the Jacobian
    of the observed joint."""
    states = all_states([v.cardinality for v in observed])
    return indicator_weights(observed, states[:-1])


def full_jacobian(model: TreeModel, point):
    """The Jacobian of the observed joint, one row per joint state but the
    last, from the packed oracle passes."""
    weights = jacobian_weights(model.observed_variables)
    return observed_joint_jacobian(model, point, weights)


def full_lc_jacobian(component, point):
    """``lc_jacobian_at`` over every joint neighbor state but the all-last one."""
    cards = [card for _, card in component.neighbors]
    return lc_jacobian_at(component, point, all_states(cards)[:-1])


def joint_observed_distribution(model: TreeModel, point) -> tuple[int, ...]:
    """Joint distribution of the observed variables at a point, mod PRIME,
    in lexicographic state order, from the packed inside pass
    ``treedim.oracle._inside`` over the indicator functionals."""
    parents, children, order = model._rooting
    tables = _full_tables(model, point, parents)
    weights, k = _weights(
        model.observed_variables, indicator_weights(model.observed_variables)
    )
    _, up, _ = _inside(order, children, tables, weights, k)
    return tuple(s % PRIME for s in up[order[0]][0])


def reference_observed_joint_jacobian(model: TreeModel, point, weights):
    """``treedim.oracle.observed_joint_jacobian`` by the list-based passes,
    one product and one ``% PRIME`` per functional and table entry."""
    parents, children, order = model._rooting
    tables = _full_tables(model, point, parents)
    weights, k = _weights(model.observed_variables, weights)
    if not k:
        return ()
    beta, up = reference_inside(order, children, tables, weights, k)
    grad = reference_gradient(order, children, tables, weights, beta, up, k)
    return tuple(zip(*(column for vid in sorted(grad) for column in grad[vid])))


def reference_joint_observed_distribution(model: TreeModel, point):
    """``joint_observed_distribution`` by the list-based inside pass over
    the indicator functionals."""
    parents, children, order = model._rooting
    tables = _full_tables(model, point, parents)
    weights, k = _weights(
        model.observed_variables, indicator_weights(model.observed_variables)
    )
    _, up = reference_inside(order, children, tables, weights, k)
    return tuple(up[order[0]][0])


def reference_oracle_effective_dimension(
    model: TreeModel, trials: int, seed: int = 0
) -> int:
    """The oracle before it dropped the parameters that cannot move the
    observed joint: each trial ranks all ``n`` columns of the gradients of
    ``min(n, states - 1)`` random functionals, ``n`` every free parameter."""
    n_params = standard_dimension(model)
    cards = [v.cardinality for v in model.observed_variables]
    k, width = min(n_params, math.prod(cards) - 1), sum(cards)
    spans = [range(e - c, e) for e, c in zip(itertools.accumulate(cards), cards)]
    ranks = []
    for trial in range(trials):
        rng = random.Random(derive_seed(seed, "oracle-trial", trial))
        point = sample_full_point(model, rng)
        draws = field_draws(rng, k * width)
        weights = [[draws[s::width] for s in span] for span in spans]
        ranks.append(exact_rank(observed_joint_jacobian(model, point, weights)))
    return max(ranks)
