"""Brute-force effective dimension via the observed-joint Jacobian.

Ground truth for the decomposition: the Jacobian rank of the observed
joint in every free weight of the rooted model, without splitting the tree
or enumerating joint states.  A functional with one weight vector ``a_v``
per observed variable contracts the joint to the scalar
``S = sum_x prod_v a_v(x_v) P(x)``.  One inside and one outside pass over
the tree give its gradient mod the field prime (the differential approach
of Darwiche, JACM 2003).  The passes take the weights of all functionals
as one table per observed variable, a row per state and an entry per
functional, and hold a message's values for all functionals in one int, a
slot each, so a table sum is one big-int multiply-add per table entry (see
:class:`treedim.rank._Slots`).  A parameter is *live* when its variable
is observed or has a live child.  Each completed block sums to one mod p,
so a subtree without observed variables sums to exactly one at every
parent state, and the other parameters' columns are exact zeros: rank J
<= k = min(n_live, states - 1).  The oracle ranks the nonzero columns
(rank J = rank J^T) of the gradients of ``k`` functionals with random
entries in GF(p), the rows of a projection ``R J``, at a point drawn in
GF(p), which need be neither rational nor interior (see
:mod:`treedim.rank`).  A projection can only lower the rank, and rank-one
functionals span the dual of the joint space.  Every point and functional
entry is drawn with point mass at most mu = 9/2**64, so by Schwartz-Zippel
a random point and ``R`` keep the rank with probability at least
``1 - deg * mu``: the error stays one-sided.  Elimination is cubic in the
parameter count, so models beyond a fixed parameter limit are refused.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from operator import mul, sub
from typing import Sequence

from .model import TreeModel, Variable, require_valid, standard_dimension
from .rank import (
    DEFAULT_TRIALS,
    PRIME,
    _full_block,
    _Slots,
    derive_seed,
    exact_rank,
    field_draws,
)

PARAMETER_LIMIT = 256


class OracleLimitError(RuntimeError):
    """The model is too large for the brute force; use the decomposition."""


@dataclass(frozen=True)
class FullParameterPoint:
    """Parameter point of the whole model in GF(PRIME), rooted at the lowest id.

    ``root_weights`` are the free weights of the root distribution;
    ``conditionals`` maps every non-root variable id to one tuple of free
    weights per parent state.  Weights are integers taken mod PRIME; the
    last weight of every block is one minus the rest, mod PRIME.
    """

    root_id: int
    root_weights: tuple[int, ...]
    conditionals: tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]


def sample_full_point(model: TreeModel, rng: random.Random) -> FullParameterPoint:
    require_valid(model)
    parents, _, _ = model._rooting
    root, *rest = model.variables
    # one (parent cardinality, block width) pair per non-root variable
    shapes = [
        (model.variable(parents[v.id]).cardinality, v.cardinality - 1) for v in rest
    ]
    count = root.cardinality - 1 + sum(b * w for b, w in shapes)
    draws = iter(field_draws(rng, count))
    root_weights = tuple(itertools.islice(draws, root.cardinality - 1))
    conditionals = tuple(
        (var.id, tuple(tuple(itertools.islice(draws, width)) for _ in range(blocks)))
        for var, (blocks, width) in zip(rest, shapes)
    )
    return FullParameterPoint(root.id, root_weights, conditionals)


def _full_tables(model: TreeModel, point: FullParameterPoint, parents):
    """Check the point against the model and complete each block once.

    Returns ``tables[var_id][parent_state]``, the completed blocks of
    every variable; the root has one block.
    """
    root = model.variables[0].id
    if point.root_id != root:
        raise ValueError(
            f"point rooted at id {point.root_id}, model roots at id {root}"
        )
    card = {v.id: v.cardinality for v in model.variables}
    if len(point.root_weights) != card[root] - 1:
        raise ValueError("root weight count does not match root cardinality")
    tables = {root: [_full_block(point.root_weights)]}
    if {vid for vid, _ in point.conditionals} != card.keys() - {root}:
        raise ValueError("conditional tables do not cover the non-root variables")
    for vid, blocks in point.conditionals:
        width = card[vid] - 1
        if len(blocks) != card[parents[vid]] or any(len(b) != width for b in blocks):
            raise ValueError(
                f"variable {model.variable(vid).name!r}: expected "
                f"{card[parents[vid]]} blocks of {width} free weights"
            )
        tables[vid] = [_full_block(block) for block in blocks]
    return tables


def _weights(observed: Sequence[Variable], weights) -> tuple[dict[int, list], int]:
    """Check ``weights`` (see :func:`observed_joint_jacobian`) and return its
    tables by observed variable id, entries mod PRIME, and the count k."""
    k = len(weights[0][0]) if weights and weights[0] else 0
    shape = [[k] * v.cardinality for v in observed]
    if [[len(row) for row in t] for t in weights] != shape:
        raise ValueError("weights need a cardinality x k table per observed variable")
    rows = [[[w % PRIME for w in row] for row in t] for t in weights]
    return {v.id: t for v, t in zip(observed, rows)}, k


def _times(a, b):
    """Entrywise product mod PRIME of two ``[state][functional]`` arrays."""
    return [[y % PRIME for y in map(mul, ax, bx)] for ax, bx in zip(a, b)]


def _sums(slots, rows, vectors):
    """Packed ``sum_i row[i] * vectors[i]`` per row, slots folded below 2p."""
    packed = [slots.pack(x) for x in vectors]
    return [slots.unpack(slots.fold(sum(map(mul, row, packed)))) for row in rows]


def _inside(order, children, tables, weights, k):
    """Inside vectors and upward messages of all functionals at once.

    ``beta[v][x][j]`` is functional ``j``'s weight of ``v`` at ``x`` times
    the messages of ``v``'s children at ``x``, an entrywise product over
    the factors present.  The message to the parent at state ``p``,
    ``up[v][p][j] = sum_x tables[v][p][x] * beta[v][x][j]``, is one packed
    sum (:func:`_sums`), a slot per functional, its entries below 2p;
    ``up[root][0][j]`` is functional ``j``'s ``S``.  A subtree without
    observed variables sums to one at every parent state, so it gets
    neither ``beta`` nor ``up``.  Returns the slots too.
    """
    # A sum in _sums adds at most c products of a table entry, below p, and
    # a vector entry, below 2p, c the largest cardinality: below c * 2**123.
    card = max(len(blocks[0]) for blocks in tables.values())
    slots = _Slots(k, 123 + card.bit_length())
    beta, up = {}, {}
    for v in reversed(order):
        factors = [up[c] for c in children[v] if c in up]
        if v in weights:
            factors.append(weights[v])
        if factors:
            beta[v] = functools.reduce(_times, factors)
            up[v] = _sums(slots, tables[v], beta[v])
    return beta, up, slots


def _gradient(order, children, tables, weights, beta, up, slots):
    """Gradient columns of the scalars ``S``, mod PRIME, per variable.

    ``outer[v][p]`` is the weight outside ``v``'s subtree and table at
    parent state ``p`` (one at the root, where no product is taken).  A
    free weight moves its entry up and its block's last entry down, so
    its column is ``outer[v][p] * (beta[v][x] - beta[v][last])``, zero
    without ``beta``.  ``down[x] = sum_p tables[v][p][x] * outer[v][p]``
    is a packed sum, as in :func:`_inside`.
    """
    outer = {order[0]: None}  # None: the root's outer weight is one
    grad = {}
    for v in order:
        if v not in beta:
            grad[v] = [slots.unpack(0)] * (len(tables[v]) * (len(tables[v][0]) - 1))
            continue
        b, out = beta[v], outer[v]
        diffs = [list(map(sub, bx, b[-1])) for bx in b[:-1]]
        if out is None:
            grad[v] = [[d % PRIME for d in dx] for dx in diffs]
        else:
            grad[v] = [col for ox in out for col in _times([ox] * len(diffs), diffs)]
        kids = [c for c in children[v] if c in beta]
        if not kids:
            continue
        # down[x]: the weight outside the subtrees of v's children at v = x
        down = _sums(slots, zip(*tables[v]), out or [slots.unpack(slots.ones)])
        if v in weights:
            down = _times(down, weights[v])
        rest = []  # rest[-1 - i]: product of the messages of kids[i + 1:]
        for c in reversed(kids[1:]):
            rest.append(_times(rest[-1], up[c]) if rest else up[c])
        for c in kids[:-1]:
            outer[c] = _times(down, rest.pop())
            down = _times(down, up[c])
        outer[kids[-1]] = down
    return grad


def observed_joint_jacobian(
    model: TreeModel, point: FullParameterPoint, weights
) -> tuple[tuple[int, ...], ...]:
    """Gradients of functionals of the observed joint, mod PRIME.

    ``weights[i][x][j]`` is functional ``j``'s weight of observed variable
    ``i``, in ascending id order, at state ``x``: one table per observed
    variable, a row per state, an entry per functional, any integers.
    Functional ``j`` stands for ``S = sum_x prod_v a_v(x_v) P(x)``, and
    row ``j`` is its gradient in every free parameter, with entries in
    [0, PRIME).  Columns follow the canonical parameter order: the root
    block, then ascending non-root ids, each with one block per parent
    state.
    """
    require_valid(model)
    parents, children, order = model._rooting
    tables = _full_tables(model, point, parents)
    weights, k = _weights(model.observed_variables, weights)
    beta, up, slots = _inside(order, children, tables, weights, k)
    grad = _gradient(order, children, tables, weights, beta, up, slots)
    return tuple(zip(*(column for vid in sorted(grad) for column in grad[vid])))


def _live_parameters(model: TreeModel) -> int:
    """Free parameters of the observed variables and those with a live child."""
    parents, children, order = model._rooting
    card = {v.id: v.cardinality for v in model.variables}
    live, count = set(), 0
    for v in reversed(order):
        if model.variable(v).observed or live.intersection(children[v]):
            live.add(v)
            count += (card[v] - 1) * card.get(parents.get(v), 1)  # root: 1 block
    return count


def oracle_effective_dimension(
    model: TreeModel,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> int:
    """Effective dimension by direct Jacobian rank, without decomposition.

    Each trial ranks the nonzero columns of the gradients of
    ``min(live parameters, states - 1)`` random functionals at one random
    point of GF(PRIME).  Raises :class:`OracleLimitError` when the
    parameter count is too large for a dense exact elimination.
    """
    require_valid(model)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n_params = standard_dimension(model)
    if n_params > PARAMETER_LIMIT:
        raise OracleLimitError(
            f"model has {n_params} parameters (limit {PARAMETER_LIMIT}); "
            "use the decomposition pipeline"
        )
    cards = [v.cardinality for v in model.observed_variables]
    k, width = min(_live_parameters(model), math.prod(cards) - 1), sum(cards)
    # Draw j*width + s is functional j's weight of variable i at s - spans[i][0].
    spans = [range(e - c, e) for e, c in zip(itertools.accumulate(cards), cards)]
    ranks = []
    for trial in range(trials):
        rng = random.Random(derive_seed(seed, "oracle-trial", trial))
        point = sample_full_point(model, rng)
        draws = field_draws(rng, k * width)
        weights = [[draws[s::width] for s in span] for span in spans]
        rows = observed_joint_jacobian(model, point, weights)
        ranks.append(exact_rank([col for col in zip(*rows) if any(col)]))
    return max(ranks)
