"""Brute-force effective dimension via the observed-joint Jacobian.

Ground truth for the decomposition: the Jacobian rank of the observed
joint in every free weight of the rooted model, without splitting the
tree or enumerating joint states.  The parameter point and the
gradients of random functionals of the joint come from
:func:`treedim.rank.draw_point` and :func:`treedim.rank.jacobian`, called
here on the whole tree; the latent-class ranks of the decomposition call
them on each component's star.  A parameter is *live* when its variable
is observed or has a live child.
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

import math
import random

from .model import TreeModel, require_valid, standard_dimension
from .rank import (
    DEFAULT_TRIALS,
    _functionals,
    derive_seed,
    draw_point,
    exact_rank,
    jacobian,
)

PARAMETER_LIMIT = 256


class OracleLimitError(RuntimeError):
    """The model is too large for the brute force; use the decomposition."""


def sample_full_point(model: TreeModel, rng: random.Random) -> list:
    """:func:`treedim.rank.draw_point` of a valid model."""
    require_valid(model)
    return draw_point(model, rng)


def observed_joint_jacobian(
    model: TreeModel, point, weights
) -> tuple[tuple[int, ...], ...]:
    """:func:`treedim.rank.jacobian` of a valid model.

    Functional ``j`` stands for ``S = sum_x prod_v a_v(x_v) P(x)``, with
    ``weights[i][x][j]`` its weight of observed variable ``i`` at ``x``,
    and row ``j`` is its gradient in every free parameter.  Columns follow
    the point: ascending ids, each with one block per parent state.
    """
    require_valid(model)
    return jacobian(model, point, weights)


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
    ``k = min(live parameters, states - 1)`` random functionals at one
    random point of GF(PRIME); the trials stop at the first that reaches
    ``k``.  Raises :class:`OracleLimitError` when the parameter count is
    too large for a dense exact elimination.
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
        if ranks[-1] == k:  # k rows: no later trial can rank higher
            break
    return max(ranks)
