"""Brute-force effective dimension via the observed-joint Jacobian.

Ground truth for the decomposition: the Jacobian rank of the observed
joint in every free weight of the rooted model, without splitting the
tree or enumerating joint states.  The parameter point and the
gradients of random functionals of the joint come from ``rank.draw_point``
and ``rank.jacobian``, bound here as ``sample_full_point`` and
``observed_joint_jacobian``; the latent-class ranks call them on each
component's star.  A parameter is *live* when its variable is observed or
has a live child.  Each completed block sums to one mod p, so a subtree
without observed variables sums to exactly one at every parent state,
and the other parameters' columns are exact zeros: rank J <= k =
min(n_live, states - 1).  The oracle draws a point of the whole tree in
GF(p), p = 2**31 - 1, and runs the passes on its live part alone, so it
ranks the live columns of the gradients of ``k`` functionals with random
entries in GF(p), the rows of a projection ``R J``; by the argument in
:mod:`treedim.rank` the error stays one-sided, a trial falling short with
probability at most about deg * 2**-31.  A model is refused before any
draw when ``max(k, 1)`` times its point's entry count, the cells the
passes carry, exceeds :data:`treedim.rank.CELL_LIMIT`.
"""

from __future__ import annotations

import random

from .model import TreeModel, capped_product
from .rank import (
    DEFAULT_TRIALS,
    _functionals,
    _shapes,
    check_cells,
    check_trials,
    derive_seed,
    draw_point as sample_full_point,
    exact_rank,
    jacobian as observed_joint_jacobian,
)


def oracle_effective_dimension(
    model: TreeModel,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> int:
    """Effective dimension by direct Jacobian rank, without decomposition.

    Each trial ranks the live columns of the gradients of
    ``k = min(live parameters, states - 1)`` random functionals at one
    random point of GF(PRIME); the trials stop at the first that reaches
    ``k``.  Raises :class:`treedim.rank.CellLimitError` before any draw
    when ``max(k, 1)`` times the point's entry count exceeds
    :data:`treedim.rank.CELL_LIMIT`.
    """
    check_trials(trials)
    (_, children, order), by_id = model._rooting, model._by_id
    live: set[int] = set()
    for v in reversed(order):  # children first
        if by_id[v].observed or live.intersection(children[v]):
            live.add(v)
    tables = list(zip(model.variables, _shapes(model)))
    n_live = sum(b * (c - 1) for v, (b, c) in tables if v.id in live)
    cards = [v.cardinality for v in model.observed_variables]
    states = capped_product(cards, n_live)  # only as far as k needs it
    k, entries = min(n_live, states - 1), sum(b * c for _, (b, c) in tables)
    check_cells("oracle", max(k, 1), entries)
    part = model  # a live part keeps the root and each one's parent: same tables
    if len(live) < len(model.variables):
        part = TreeModel(
            tuple(v for v in model.variables if v.id in live),
            tuple(edge for edge in model.edges if live.issuperset(edge)),
        )
    ranks = []
    for trial in range(trials):
        rng = random.Random(derive_seed(seed, "oracle-trial", trial))
        point = sample_full_point(model, rng)
        weights = _functionals(rng, cards, k)
        kept = [t for v, t in zip(model.variables, point) if v.id in live]
        ranks.append(exact_rank(observed_joint_jacobian(part, kept, weights)))
        if ranks[-1] == k:  # k rows: no later trial can rank higher
            break
    return max(ranks)
