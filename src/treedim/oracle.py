"""Brute-force effective dimension via the observed-joint Jacobian.

Ground truth for the decomposition: the Jacobian rank of the observed
joint in every free weight of the rooted model, without splitting the
tree or enumerating joint states.  A functional with one weight vector
``a_v`` per observed variable contracts the joint to the scalar
``S = sum_x prod_v a_v(x_v) P(x)``.  One inside and one outside pass over
the tree give its gradient mod the field prime (the differential
approach of Darwiche, JACM 2003); indicator vectors give the Jacobian
row of one joint state.  The oracle ranks the gradients of
``min(n, states - 1)`` functionals with random entries in GF(p), the rows
of a projection ``R J``, at a parameter point drawn in GF(p), which
need be neither rational nor interior (see :mod:`treedim.rank`).  A
projection can only lower the rank, and rank-one functionals span the
dual of the joint space.  Every point and functional entry is drawn
with point mass at most mu = 9/2**64, so by Schwartz-Zippel a random
point and ``R`` keep the rank with probability at least
``1 - deg * mu``: the error stays one-sided.  Elimination is cubic in
the parameter count, so models beyond a fixed parameter limit are
refused.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque
from dataclasses import dataclass
from operator import mul
from typing import Sequence

from .model import TreeModel, Variable, require_valid, standard_dimension
from .rank import (
    DEFAULT_TRIALS,
    PRIME,
    _full_block,
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


def _rooting(model: TreeModel):
    """Parent map, child lists and breadth-first order from the lowest id."""
    root = model.variables[0].id
    parents: dict[int, int] = {}
    children: dict[int, list[int]] = {v.id: [] for v in model.variables}
    order = [root]
    seen = {root}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for other in model.neighbors(node):
            if other in seen:
                continue
            seen.add(other)
            parents[other] = node
            children[node].append(other)
            order.append(other)
            queue.append(other)
    return parents, children, order


def sample_full_point(model: TreeModel, rng: random.Random) -> FullParameterPoint:
    require_valid(model)
    parents, _, _ = _rooting(model)
    root, *rest = model.variables
    # one (parent cardinality, block width) pair per non-root variable
    shapes = [
        (model.variable(parents[v.id]).cardinality, v.cardinality - 1) for v in rest
    ]
    draws = iter(
        field_draws(rng, root.cardinality - 1 + sum(b * w for b, w in shapes))
    )
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
    root_card = model.variable(root).cardinality
    if len(point.root_weights) != root_card - 1:
        raise ValueError("root weight count does not match root cardinality")
    tables = {root: [_full_block(point.root_weights)]}
    given = {vid for vid, _ in point.conditionals}
    expected = {v.id for v in model.variables if v.id != root}
    if given != expected:
        raise ValueError("conditional tables do not cover the non-root variables")
    for vid, blocks in point.conditionals:
        var = model.variable(vid)
        parent_card = model.variable(parents[vid]).cardinality
        if len(blocks) != parent_card:
            raise ValueError(
                f"variable {var.name!r}: expected one block per parent state"
            )
        tables[vid] = []
        for block in blocks:
            if len(block) != var.cardinality - 1:
                raise ValueError(
                    f"variable {var.name!r}: block size does not match cardinality"
                )
            tables[vid].append(_full_block(block))
    return tables


def _indicators(observed: Sequence[Variable]):
    """The indicator functional of every observed joint state, in
    lexicographic order over the observed variables in ascending id order."""
    units = [
        [[int(s == x) for s in range(v.cardinality)] for x in range(v.cardinality)]
        for v in observed
    ]
    return list(itertools.product(*units))


def _weights(observed: Sequence[Variable], functionals) -> dict[int, list]:
    """``weights[v][x][j]``: functional ``j``'s weight of observed ``v`` at ``x``."""
    shape = [v.cardinality for v in observed]
    if any([len(a) for a in f] != shape for f in functionals):
        raise ValueError(
            "a functional needs one weight vector per observed variable, "
            "as long as its cardinality"
        )
    return {
        v.id: [list(at_x) for at_x in zip(*(f[i] for f in functionals))]
        for i, v in enumerate(observed)
    }


def _inside(order, children, tables, weights, k):
    """Inside vectors and upward messages of ``k`` functionals at once.

    ``beta[v][x][j]`` is functional ``j``'s weight of ``v`` at ``x`` (one
    for a latent ``v``) times the messages of ``v``'s children at ``x``.
    ``up[v][p][j] = sum_x tables[v][p][x] * beta[v][x][j]`` is the message
    to the parent at state ``p``.  The root has one block, so
    ``up[root][0][j]`` is the scalar ``S`` of functional ``j``.  Every
    message is reduced mod PRIME.
    """
    beta, up = {}, {}
    for v in reversed(order):
        b = weights[v] if v in weights else [[1] * k] * len(tables[v][0])
        for c in children[v]:
            b = [[x * y % PRIME for x, y in zip(bx, ux)] for bx, ux in zip(b, up[c])]
        beta[v] = b
        per_functional = list(zip(*b))
        up[v] = [
            [sum(map(mul, row, bj)) % PRIME for bj in per_functional]
            for row in tables[v]
        ]
    return beta, up


def _times(a, b):
    """Entrywise product mod PRIME of two ``[state][functional]`` arrays."""
    return [[x * y % PRIME for x, y in zip(ax, bx)] for ax, bx in zip(a, b)]


def _gradient(order, children, tables, weights, beta, up, k):
    """Gradients of the ``k`` scalars ``S`` in every free weight, mod PRIME.

    One outside pass: ``outer[v][p][j]`` is the weight of everything
    outside ``v``'s subtree and table at parent state ``p``, so
    ``dS/dT[v][p][x] = outer[v][p][j] * beta[v][x][j]``.  A free weight
    moves its own entry up and its block's last entry down.  Returns the
    gradient columns of each variable, block by block.
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
        # down[x]: the weight outside the subtrees of v's children at v = x
        per_functional = list(zip(*out))
        down = [
            [sum(map(mul, col, oj)) % PRIME for oj in per_functional]
            for col in zip(*tables[v])
        ]
        if v in weights:
            down = _times(down, weights[v])
        rest = [[[1] * k] * len(b)]  # rest[i]: product of the last i kids' messages
        for c in reversed(kids[1:]):
            rest.append(_times(rest[-1], up[c]))
        for c in kids:
            outer[c] = _times(down, rest.pop())
            down = _times(down, up[c])
    return grad


def joint_observed_distribution(
    model: TreeModel, point: FullParameterPoint
) -> tuple[int, ...]:
    """Joint distribution of the observed variables at a point, mod PRIME.

    Entries are indexed lexicographically over the observed variables in
    ascending id order and sum to one mod PRIME.  One inside pass gives
    the scalars of the states' indicator functionals.
    """
    require_valid(model)
    parents, children, order = _rooting(model)
    tables = _full_tables(model, point, parents)
    observed = model.observed_variables
    indicators = _indicators(observed)
    weights = _weights(observed, indicators)
    _, up = _inside(order, children, tables, weights, len(indicators))
    return tuple(up[order[0]][0])


def observed_joint_jacobian(
    model: TreeModel, point: FullParameterPoint, functionals=None
) -> tuple[tuple[int, ...], ...]:
    """Gradients of functionals of the observed joint, mod PRIME.

    A functional holds one weight vector per observed variable, in
    ascending id order, and stands for ``S = sum_x prod_v a_v(x_v) P(x)``.
    Row ``j`` is the gradient of functional ``j`` in every free parameter.
    Columns follow the canonical parameter order: the root block, then
    ascending non-root ids, each with one block per parent state.  The
    default, ``None``, is the indicator functional of every observed joint
    state but the lexicographically last, so the rows are the Jacobian of
    the observed joint.
    """
    require_valid(model)
    parents, children, order = _rooting(model)
    tables = _full_tables(model, point, parents)
    observed = model.observed_variables
    if functionals is None:
        functionals = _indicators(observed)[:-1]
    k = len(functionals)
    if not k:
        return ()
    weights = _weights(observed, functionals)
    beta, up = _inside(order, children, tables, weights, k)
    grad = _gradient(order, children, tables, weights, beta, up, k)
    columns = [column for vid in sorted(grad) for column in grad[vid]]
    if len(columns) != standard_dimension(model):
        raise AssertionError("parameter column count does not match dimension")
    return tuple(zip(*columns))


def oracle_effective_dimension(
    model: TreeModel,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> int:
    """Effective dimension by direct Jacobian rank, without decomposition.

    Each trial ranks the gradients of ``min(n, states - 1)`` random
    functionals at one random point of GF(PRIME).  Raises
    :class:`OracleLimitError` when the parameter count is too large for a
    dense exact elimination.
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
    k = min(n_params, math.prod(cards) - 1)

    ranks = []
    for trial in range(trials):
        rng = random.Random(derive_seed(seed, "oracle-trial", trial))
        point = sample_full_point(model, rng)
        draws = iter(field_draws(rng, k * sum(cards)))
        functionals = [
            [list(itertools.islice(draws, card)) for card in cards] for _ in range(k)
        ]
        ranks.append(exact_rank(observed_joint_jacobian(model, point, functionals)))
    return max(ranks)
