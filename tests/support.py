"""Shared model builders for the test suite."""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction
from operator import mul, sub
from typing import Sequence

from treedim import TreeModel, Variable
from treedim.decompose import (
    DecompositionLedger,
    Term,
    decompose_hlc,
    prune_latent_leaves,
)
from treedim.model import (
    RegularityViolation,
    RegularizationStep,
    regularize,
    standard_dimension,
)
from treedim.oracle import observed_joint_jacobian, sample_full_point
from treedim.rank import (
    CELL_LIMIT,
    PRIME,
    CellLimitError,
    _functionals,
    _inside,
    _layout,
    _shapes,
    _residues,
    _Slots,
    _times,
    derive_seed,
    exact_rank,
    field_draws,
    lc_jacobian_at,
    sample_lc_point,
)


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


def random_hlc_model(
    rng: random.Random, latents: tuple[int, int] = (2, 6), max_card: int = 4
) -> TreeModel:
    """Random hierarchical latent class (HLC) shaped tree.

    A random skeleton of ``latents`` (by default 2-6) latents of
    cardinality 2 to ``max_card``; about one skeleton edge in six runs
    through an observed node of cardinality 2-3, so the split step has
    work too.  Each latent then gets observed leaves of cardinality 2-3,
    mostly enough to reach degree 3, though one latent in five may stop
    short of it (and be regularized away).
    """
    count = rng.randint(*latents)
    specs = [(f"H{i}", rng.randint(2, max_card), False) for i in range(count)]
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


def glued_model(
    pieces: Sequence[TreeModel], rng: random.Random
) -> tuple[TreeModel, dict[int, int]]:
    """Glue ``pieces`` into one tree by identifying observed variables.

    Each piece after the first shares one of its observed variables with
    an observed variable of matching cardinality in an earlier piece, the
    pair drawn at random; a shared variable keeps the earlier piece's name,
    and every other variable of piece ``j`` is renamed ``P<j>.<name>``.
    Returns the glued model and, for each shared variable's id in it, the
    number ``d`` of pieces that hold it.  By the observed-cut step of the
    decomposition, the glued model's dimensions are those of the pieces
    summed, less ``(d - 1) * (cardinality - 1)`` per shared variable.
    Raises ``IndexError`` if some piece has no observed variable that
    matches an earlier one.
    """
    variables: list[Variable] = []
    edges: list[tuple[int, int]] = []
    holders: dict[int, int] = {}  # glued id of each observed variable -> pieces
    for j, piece in enumerate(pieces):
        ids = {}
        if j:
            matches = [
                (v.id, glued)
                for v in piece.observed_variables
                for glued in holders
                if variables[glued].cardinality == v.cardinality
            ]
            own, glued = rng.choice(matches)
            ids[own] = glued
            holders[glued] += 1
        for v in piece.variables:
            if v.id not in ids:
                ids[v.id] = len(variables)
                variables.append(replace(v, id=len(variables), name=f"P{j}.{v.name}"))
                if v.observed:
                    holders[ids[v.id]] = 1
        edges += [(ids[a], ids[b]) for a, b in piece.edges]
    shared = {glued: d for glued, d in holders.items() if d > 1}
    return TreeModel(tuple(variables), tuple(edges)), shared


def structural_signature(model: TreeModel):
    """Name-based structure, independent of variable ids."""
    names = {v.id: v.name for v in model.variables}
    return (
        frozenset((v.name, v.cardinality, v.observed) for v in model.variables),
        frozenset(frozenset((names[a], names[b])) for a, b in model.edges),
    )


def reference_rank(rows, p: int = PRIME) -> int:
    """Rank over GF(p) by plain row reduction, one entry at a time.

    The list-based elimination ``treedim.rank.exact_rank`` replaced; each
    pivot row is normalised to a leading 1.
    """
    n = len(rows[0]) if rows else 0
    basis: dict[int, list[int]] = {}
    for vec in rows:
        for lead in range(n):
            f = vec[lead] % p
            if not f:
                continue
            pivot = basis.get(lead)
            if pivot is None:
                inv = pow(f, -1, p)
                basis[lead] = [x * inv % p for x in vec]
                break
            vec = [a - f * b for a, b in zip(vec, pivot)]
    return len(basis)


def reference_packed_rank(rows) -> int:
    """Rank over GF(PRIME) by the packed elimination with un-normalised pivots.

    The version of ``treedim.rank.exact_rank`` before unit-lead pivots:
    each pivot is stored as the inverse of its lead and ``2p - pivot``, a
    step costs ``f * inv % PRIME`` on top of the multiply-add, the pivots
    sit in a dict and a wide matrix is ranked as it is.
    """
    n = len(rows[0]) if rows else 0
    for row in rows:
        if len(row) != n:
            raise ValueError(f"ragged matrix: row of length {len(row)}, expected {n}")
    cap = min(len(rows), n)
    if cap == 0:
        return 0
    slots = _Slots(n, 124 + n.bit_length())
    width, twop, mask = slots.width, slots.ones * 2 * PRIME, (1 << slots.width) - 1
    basis: dict[int, tuple[int, int]] = {}  # lead column -> (1 / lead, 2p - pivot)
    for row in rows:
        vec = slots.pack(_residues(row))
        for lead in range(n):
            f = (vec & mask) % PRIME
            if f:
                pivot = basis.get(lead)
                if pivot is None:
                    neg = (twop >> lead * width) - slots.fold(vec)
                    basis[lead] = (pow(f, -1, PRIME), neg)
                    break
                inv, neg = pivot
                vec += f * inv % PRIME * neg
            vec >>= width
        if len(basis) == cap:
            break
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

    The list-based inside pass ``treedim.rank._inside`` replaced:
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

    The list-based outside pass ``treedim.rank._gradient`` replaced:
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


def reference_sums(slots, rows, vectors):
    """Packed ``sum_i row[i] * vectors[i]`` per row, slots folded below 2p:
    the helper the packed passes shared before each pass inlined it."""
    packed = list(map(slots.pack, vectors))
    return [slots.unpack(slots.fold(sum(map(mul, row, packed)))) for row in rows]


def reference_sums_inside(order, children, tables, weights, k):
    """``treedim.rank._inside`` before it inlined its packed sum: every node's
    factors go through ``itertools.accumulate``, even a single one."""
    card = max(len(blocks[0]) for blocks in tables.values())
    slots = _layout(k, 123 + card.bit_length(), PRIME)  # the kernels' memo key
    partial, up = {}, {}
    for v in reversed(order):
        factors = [up[c] for c in children[v]]
        if v in weights or not factors:
            factors.append(weights.get(v) or [[1] * k] * len(tables[v][0]))
        partial[v] = list(itertools.accumulate(factors, _times))
        up[v] = reference_sums(slots, tables[v], partial[v][-1])
    return partial, up, slots


def reference_sums_gradient(order, children, tables, weights, partial, up, slots):
    """``treedim.rank._gradient`` before it inlined its packed sum and took
    the root apart: the root's outer weight is a block of packed ones, its
    columns products by one and its ``down`` a packed sum over them."""
    outer = {order[0]: [slots.unpack(slots.ones)]}
    grad = {}
    for v in order:
        b, out, kids = partial[v][-1], outer[v], children[v]
        diffs = [list(map(sub, bx, b[-1])) for bx in b[:-1]]
        grad[v] = [[x * y % PRIME for x, y in zip(ox, d)] for ox in out for d in diffs]
        if not kids:
            continue
        down = reference_sums(slots, zip(*tables[v]), out)
        if v in weights:
            down = _times(down, weights[v])
        for i in range(len(kids) - 1, 0, -1):
            outer[kids[i]] = _times(down, partial[v][i - 1])
            down = _times(down, up[kids[i]])
        outer[kids[0]] = down
    return grad


def reference_draw_point(model: TreeModel, rng: random.Random) -> list:
    """``treedim.rank.draw_point`` before it sliced each block from the
    draws: one ``islice`` iterator over them, read block by block."""
    shapes = _shapes(model)
    draws = iter(field_draws(rng, sum(b * (card - 1) for b, card in shapes)))
    free = [[[*itertools.islice(draws, c - 1)] for _ in range(b)] for b, c in shapes]
    return [[[*f, (1 - sum(f)) % PRIME] for f in table] for table in free]


def reference_packed_gradient(order, children, tables, weights, partial, up, slots):
    """``treedim.rank._gradient`` before its columns were built in one
    comprehension: one ``_times([ox] * len(diffs), diffs)`` per parent state."""
    outer = {order[0]: [slots.unpack(slots.ones)]}
    grad = {}
    for v in order:
        b, out, kids = partial[v][-1], outer[v], children[v]
        diffs = [list(map(sub, bx, b[-1])) for bx in b[:-1]]
        grad[v] = [col for ox in out for col in _times([ox] * len(diffs), diffs)]
        if not kids:
            continue
        down = reference_sums(slots, zip(*tables[v]), out)
        if v in weights:
            down = _times(down, weights[v])
        for i in range(len(kids) - 1, 0, -1):
            outer[kids[i]] = _times(down, partial[v][i - 1])
            down = _times(down, up[kids[i]])
        outer[kids[0]] = down
    return grad


def all_states(cards: Sequence[int]) -> list[tuple[int, ...]]:
    """Every joint state over the given cardinalities, in lexicographic order."""
    return list(itertools.product(*(range(card) for card in cards)))


def indicator_weights(cards: Sequence[int], states=None):
    """Weight tables of the indicator functionals of ``states``, by default
    every joint state over the cardinalities: ``tables[i][x][j]`` is 1 when
    state ``j`` puts variable ``i`` at ``x``, else 0."""
    if states is None:
        states = all_states(cards)
    return [
        [[int(s[i] == x) for s in states] for x in range(card)]
        for i, card in enumerate(cards)
    ]


def jacobian_weights(cards: Sequence[int]):
    """The indicator functionals of every joint state but the
    lexicographically last: their gradients are the rows of the Jacobian
    of the joint."""
    return indicator_weights(cards, all_states(cards)[:-1])


def _observed(model: TreeModel):
    """The (id, cardinality) pairs of the observed variables."""
    return [(v.id, v.cardinality) for v in model.observed_variables]


def reference_weights(variables, weights) -> tuple[dict, int]:
    """``treedim.rank._weights``, which ``jacobian`` took in: checks
    ``weights[i][x][j]`` against ``variables``, (key, cardinality) pairs,
    and returns its tables by key, entries mod PRIME, and the count k."""
    k = len(weights[0][0]) if weights and weights[0] else 0
    shape = [[k] * card for _, card in variables]
    if [[len(row) for row in t] for t in weights] != shape:
        raise ValueError("weights need a cardinality x k table per observed variable")
    rows = [[_residues(row) for row in t] for t in weights]
    return {key: t for (key, _), t in zip(variables, rows)}, k


def _tables(model: TreeModel, point):
    """A point's completed tables by variable id, entries mod PRIME."""
    ids = [v.id for v in model.variables]
    return dict(zip(ids, ([[x % PRIME for x in b] for b in t] for t in point)))


def bumped_points(point):
    """Copies of the point with one free weight raised by 1 and its block's
    last weight lowered by 1, in the Jacobian's column order: the joint is
    affine in each block, so the change in it is the exact partial
    derivative mod PRIME."""
    for t, table in enumerate(point):
        for z, block in enumerate(table):
            for y in range(len(block) - 1):
                bumped = [[list(b) for b in tab] for tab in point]
                bumped[t][z][y] += 1
                bumped[t][z][-1] -= 1
                yield bumped


def full_jacobian(model: TreeModel, point):
    """The Jacobian of the observed joint, one row per joint state but the
    last, from the packed passes."""
    weights = jacobian_weights([v.cardinality for v in model.observed_variables])
    return observed_joint_jacobian(model, point, weights)


def full_lc_jacobian(component, point):
    """``lc_jacobian_at`` over every joint neighbor state but the all-last one."""
    weights = jacobian_weights([card for _, card in component.neighbors])
    return lc_jacobian_at(component, point, weights)


def joint_observed_distribution(model: TreeModel, point) -> tuple[int, ...]:
    """Joint distribution of the observed variables at a point, mod PRIME,
    in lexicographic state order, from the packed inside pass
    ``treedim.rank._inside`` over the indicator functionals."""
    _, children, order = model._rooting
    tables = _tables(model, point)
    observed = _observed(model)
    weights = indicator_weights([c for _, c in observed])
    weights, k = reference_weights(observed, weights)
    _, up, _ = _inside(order, children, tables, weights, k)
    return tuple(s % PRIME for s in up[order[0]][0])


def reference_observed_joint_jacobian(model: TreeModel, point, weights):
    """``treedim.oracle.observed_joint_jacobian`` by the list-based passes,
    one product and one ``% PRIME`` per functional and table entry."""
    _, children, order = model._rooting
    tables = _tables(model, point)
    weights, k = reference_weights(_observed(model), weights)
    if not k:
        return ()
    beta, up = reference_inside(order, children, tables, weights, k)
    grad = reference_gradient(order, children, tables, weights, beta, up, k)
    return tuple(zip(*(column for vid in sorted(grad) for column in grad[vid])))


def reference_packed_jacobian(model: TreeModel, point, weights):
    """``treedim.rank.jacobian`` with the packed inside pass and
    ``reference_packed_gradient``."""
    _, children, order = model._rooting
    tables = _tables(model, point)
    weights, k = reference_weights(_observed(model), weights)
    passes = _inside(order, children, tables, weights, k)
    grad = reference_packed_gradient(order, children, tables, weights, *passes)
    return tuple(zip(*(column for v in model.variables for column in grad[v.id])))


def reference_joint_observed_distribution(model: TreeModel, point):
    """``joint_observed_distribution`` by the list-based inside pass over
    the indicator functionals."""
    _, children, order = model._rooting
    tables = _tables(model, point)
    observed = _observed(model)
    weights = indicator_weights([c for _, c in observed])
    weights, k = reference_weights(observed, weights)
    _, up = reference_inside(order, children, tables, weights, k)
    return tuple(up[order[0]][0])


def reference_oracle_effective_dimension(
    model: TreeModel, trials: int, seed: int = 0
) -> int:
    """The oracle before it dropped the parameters that cannot move the
    observed joint: each trial ranks all ``n`` columns of the gradients of
    ``min(n, states - 1)`` random functionals, ``n`` every free parameter."""
    cards = [v.cardinality for v in model.observed_variables]
    k = min(standard_dimension(model), math.prod(cards) - 1)
    ranks = []
    for trial in range(trials):
        rng = random.Random(derive_seed(seed, "oracle-trial", trial))
        point = sample_full_point(model, rng)
        weights = _functionals(rng, cards, k)
        ranks.append(exact_rank(observed_joint_jacobian(model, point, weights)))
    return max(ranks)


def reference_lc_jacobian_at(component, point, states):
    """Closed-form Jacobian rows of a latent-class component's joint, mod PRIME.

    The derivation ``treedim.rank.lc_jacobian_at`` replaced, independent of
    the packed passes.  ``point`` holds the star's completed tables, as
    ``treedim.rank.sample_lc_point`` draws them.  The joint probability of
    a neighbor-state tuple ``y`` is ``sum_z pi_z * prod_i phi[i][z][y_i]``
    with the last weight of every block one minus the rest.  There is one
    row per tuple in ``states``, in that order; columns are the free class
    weights, then the free conditional weights by neighbor, class and state.
    """
    (pi,), *phi = point
    c = component.latent_cardinality
    cards = [card for _, card in component.neighbors]
    # offsets[i] is the first column of neighbor i; the last one is n.
    offsets = list(itertools.accumulate((c * (k - 1) for k in cards), initial=c - 1))
    rows = []
    for state in states:
        row = [0] * offsets[-1]
        free = []  # free[z] = pi_z * prod_i phi[i][z][y_i]
        for z in range(c):
            factors = [phi[i][z][y] for i, y in enumerate(state)]
            suffix = [pi[z]]  # suffix[-1 - i] = pi_z * prod_{j >= i} factors[j]
            for f in reversed(factors):
                suffix.append(suffix[-1] * f % PRIME)
            prefix = 1  # prod_{j < i} factors[j]
            for i, y in enumerate(state):
                width = cards[i] - 1
                if width:
                    # d joint / d phi[i][z][y] = pi_z * prod_{j != i} phi[j][z][y_j]
                    base = prefix * suffix[-2 - i] % PRIME
                    start = offsets[i] + z * width
                    if y < width:
                        row[start + y] = base
                    else:
                        row[start : start + width] = [-base % PRIME] * width
                prefix = prefix * factors[i] % PRIME
            free.append(prefix)
        for z in range(c - 1):
            row[z] = (free[z] - free[c - 1]) % PRIME
        rows.append(tuple(row))
    return tuple(rows)


REFERENCE_ROW_LIMIT = 2**16


def reference_lc_rank(component, rng: random.Random) -> int:
    """The latent-class trial rank that functionals replaced (formerly
    ``treedim.rank._spread_rank``): closed-form rows over golden-strided
    joint states.

    A golden-ratio stride coprime to the row count m, round(m * (sqrt(5) -
    1) / 2) in exact integers, spreads the rows.  The prefix starts at b =
    min(n, m) rows and doubles, building only the new rows, while its rank
    is below b and it is shorter than m.  A prefix over
    ``REFERENCE_ROW_LIMIT`` rows, or a first prefix of b * n cells over
    ``CELL_LIMIT``, raises ``CellLimitError``, the second before any draw.
    """
    cards = [card for _, card in component.neighbors]
    m, n = math.prod(cards) - 1, standard_dimension(component.star)
    bound = min(n, m)
    if bound * n > CELL_LIMIT:
        raise CellLimitError(f"needs {bound} x {n} cells > {CELL_LIMIT}")
    point = sample_lc_point(component, rng)
    step = (math.isqrt(20 * m * m) - 2 * m + 2) // 4
    while math.gcd(step, m) != 1:
        step += 1
    # Digit i of a lexicographic state index j is j // radix[i] % cards[i].
    radix = [math.prod(cards[i + 1 :]) for i in range(len(cards))]
    rows, size = [], bound
    while size <= REFERENCE_ROW_LIMIT:
        states = [
            [k * step % m // r % card for r, card in zip(radix, cards)]
            for k in range(len(rows), size)
        ]
        rows.extend(reference_lc_jacobian_at(component, point, states))
        rank = exact_rank(rows)
        if rank == bound or size == m:
            return rank
        size = min(2 * size, m)
    raise CellLimitError(f"needs {size} rows > {REFERENCE_ROW_LIMIT}")


def reference_trial_ranks(component, trials: int, seed: int) -> tuple[int, ...]:
    """``treedim.rank.lc_rank_trials`` before it tried GF(2**31 - 1) first:
    every trial ranks ``b`` functionals at a point of GF(PRIME) drawn from
    ``derive_seed(seed, "lc-trial", trial)``.  For components of two or
    more classes and at least one row."""
    cards = [card for _, card in component.neighbors]
    n = standard_dimension(component.star)
    bound = min(n, math.prod(cards) - 1)
    ranks = []
    for trial in range(trials):
        rng = random.Random(derive_seed(seed, "lc-trial", trial))
        point = sample_lc_point(component, rng)
        weights = _functionals(rng, cards, bound)
        ranks.append(exact_rank(lc_jacobian_at(component, point, weights)))
    return tuple(ranks)


def flattening_bound(latent_card: int, cards: Sequence[int]) -> int:
    """Upper bound on a latent-class component's dimension from flattenings.

    Grouping the neighbors into two sides with joint state counts k1 and k2
    writes the joint as a k1 x k2 matrix of rank at most m = min(c, k1, k2),
    ``c`` the latent cardinality.  Such matrices form a variety of dimension
    m(k1 + k2 - m), and entries that sum to one lose one more, so the
    dimension is at most m(k1 + k2 - m) - 1 for every split of the neighbors
    of two or more states.  Returns the minimum over those splits; the split
    with an empty side gives the joint-state bound k1 * k2 - 1, and is the
    only one when fewer than two neighbors have two or more states.  Shares
    no code with the rank engines.
    """
    first, *rest = [card for card in cards if card >= 2] or [1]
    bounds = []
    # The first neighbor stays on the left, so each split is taken once.
    for mask in range(2 ** len(rest)):
        k1 = first * math.prod(c for i, c in enumerate(rest) if mask >> i & 1)
        k2 = first * math.prod(rest) // k1
        m = min(latent_card, k1, k2)
        bounds.append(m * (k1 + k2 - m) - 1)
    return min(bounds)


def reference_prune_latent_leaves(model: TreeModel):
    """Latent-leaf pruning as ``treedim.decompose.prune_latent_leaves`` did
    it before its layered worklist: one pass per layer of latent leaves,
    rebuilding the model after each."""
    removed: list[int] = []
    while True:
        latents = model.latent_variables
        leaves = {v.id for v in latents if len(model.neighbors(v.id)) <= 1}
        if not leaves:
            return model, tuple(removed)
        model = TreeModel(
            tuple(v for v in model.variables if v.id not in leaves),
            tuple(e for e in model.edges if leaves.isdisjoint(e)),
        )
        removed.extend(sorted(leaves))


def reference_check_regular(model: TreeModel):
    """``treedim.model.check_regular`` with the bound's full product, as it
    was before the product stopped past the node's cardinality times the
    largest neighbor's."""
    violations = []
    for var in model.latent_variables:
        nbrs = [model.variable(x) for x in model.neighbors(var.id)]
        cards = [x.cardinality for x in nbrs]
        bound = math.prod(cards) // max(cards)
        if var.cardinality > bound:
            violations.append(RegularityViolation(var.id, "bound", bound))
        elif var.cardinality == bound and len(nbrs) == 2:
            if not (nbrs[0].observed and nbrs[1].observed):
                violations.append(RegularityViolation(var.id, "strict", bound))
    return violations


def reference_regularize(model: TreeModel):
    """Regularization as ``treedim.model.regularize`` did it before its
    min-heap: scan the latents in ascending id, apply the first rule that
    acts, rebuild the model and restart the scan."""
    log: list[RegularizationStep] = []
    while True:
        for var in model.latent_variables:
            nbrs = model.neighbors(var.id)
            if not nbrs:
                continue
            cards = [model.variable(x).cardinality for x in nbrs]
            if len(nbrs) == 2 and var.cardinality >= min(cards):
                model = TreeModel(
                    tuple(v for v in model.variables if v is not var),
                    tuple(e for e in model.edges if var.id not in e) + (nbrs,),
                )
                log.append(RegularizationStep("remove", var.id, var.name, joined=nbrs))
                break
            bound = math.prod(cards) // max(cards)
            if var.cardinality > bound:
                model = TreeModel(
                    tuple(
                        replace(v, cardinality=bound) if v is var else v
                        for v in model.variables
                    ),
                    model.edges,
                )
                log.append(
                    RegularizationStep(
                        "reduce",
                        var.id,
                        var.name,
                        old_cardinality=var.cardinality,
                        new_cardinality=bound,
                    )
                )
                break
        else:
            return model, tuple(log)


def reference_split_at_observed(model: TreeModel):
    """``treedim.decompose.split_at_observed`` as it was while the pipeline
    worked piece by piece: cut the pruned tree at every observed internal
    node into piece models, one per latent cluster (with the observed
    nodes around it) and one per observed-observed edge, plus the
    ``(degree - 1) * (card - 1)`` correction of each cut node."""
    by_id, adjacency = model._by_id, model._adjacency
    corrections = [
        Term((v.id,), (len(adjacency[v.id]) - 1) * (v.cardinality - 1))
        for v in model.observed_variables
        if len(adjacency.get(v.id, ())) >= 2
    ]
    if not corrections:
        return (model,), ()
    cluster: dict[int, int] = {}
    for var in model.latent_variables:
        if var.id in cluster:
            continue
        cluster[var.id] = var.id
        stack = [var.id]
        while stack:
            for other in adjacency[stack.pop()]:
                if other not in cluster and not by_id[other].observed:
                    cluster[other] = var.id
                    stack.append(other)
    groups: dict[object, list[tuple[int, int]]] = {}
    for a, b in model.edges:
        key = cluster.get(a, cluster.get(b, (a, b)))
        groups.setdefault(key, []).append((a, b))
    pieces = []
    for edge_subset in groups.values():
        ids = sorted({v for e in edge_subset for v in e})
        pieces.append(TreeModel(tuple(by_id[i] for i in ids), tuple(edge_subset)))
    return tuple(pieces), tuple(corrections)


def reference_decomposition(model: TreeModel) -> DecompositionLedger:
    """The ledger of ``treedim.decompose.effective_dimension`` as it was
    built piece by piece: prune, cut into pieces, regularize each piece
    and either record it as a latent-free part or decompose it, then sort
    the components, latent-edge corrections and free parts."""
    pruned, removed = prune_latent_leaves(model)
    pieces, cut_corrections = reference_split_at_observed(pruned)
    components, edge_corrections, free_parts, log = [], [], [], []
    for piece in pieces:
        regular, steps = regularize(piece)
        log.extend(steps)
        if regular.latent_variables:
            piece_components, piece_corrections = decompose_hlc(regular)
            components.extend(piece_components)
            edge_corrections.extend(piece_corrections)
        else:
            ids = tuple(v.id for v in regular.variables)
            free_parts.append(Term(ids, standard_dimension(regular)))
    components.sort(key=lambda c: c.latent_id)
    edge_corrections.sort(key=lambda c: c.ids)
    free_parts.sort(key=lambda p: p.ids)
    return DecompositionLedger(
        lc_components=tuple(components),
        latent_edge_corrections=tuple(edge_corrections),
        observed_cut_corrections=cut_corrections,
        latent_free_parts=tuple(free_parts),
        pruned_latent_leaves=removed,
        regularization_log=tuple(log),
    )
