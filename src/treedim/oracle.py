"""Brute-force effective dimension via the observed-joint Jacobian.

Ground truth for the decomposition: the Jacobian rank of the observed
joint in every free weight of the rooted model, without splitting the
tree or enumerating joint states.  The gradients of random functionals
of the joint come from the packed inside and outside passes of
:mod:`treedim.rank`, run here on the whole tree; the latent-class ranks
of the decomposition run the same passes on each component's star.  A
parameter is *live* when its variable is observed or has a live child.
Each completed block sums to one mod p, so a subtree without observed
variables sums to exactly one at every parent state, and the other
parameters' columns are exact zeros: rank J <= k = min(n_live, states -
1).  The oracle ranks the nonzero columns (rank J = rank J^T) of the
gradients of ``k`` functionals with random entries in GF(p), the rows of
a projection ``R J``, at a point drawn in GF(p); by the argument in
:mod:`treedim.rank` the error stays one-sided.  Elimination is cubic in
the parameter count, so models beyond a fixed parameter limit are
refused.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .model import TreeModel, require_valid, standard_dimension
from .rank import (
    DEFAULT_TRIALS,
    _full_block,
    _functionals,
    _gradient,
    _inside,
    _weights,
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
    observed = [(v.id, v.cardinality) for v in model.observed_variables]
    weights, k = _weights(observed, weights)
    partial, up, slots = _inside(order, children, tables, weights, k)
    grad = _gradient(order, children, tables, weights, partial, up, slots)
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
    k = min(_live_parameters(model), math.prod(cards) - 1)
    ranks = []
    for trial in range(trials):
        rng = random.Random(derive_seed(seed, "oracle-trial", trial))
        point = sample_full_point(model, rng)
        weights = _functionals(rng, cards, k)
        rows = observed_joint_jacobian(model, point, weights)
        ranks.append(exact_rank([col for col in zip(*rows) if any(col)]))
    return max(ranks)
