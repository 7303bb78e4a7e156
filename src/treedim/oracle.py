"""Brute-force effective dimension via the full observed-joint Jacobian.

Ground truth for the decomposition pipeline on small models.  The joint
distribution of the observed variables is computed exactly by
sum-product over the tree, in rationals.  The joint is linear in each
conditional table, so its derivative with respect to one free weight is
the same sum-product with that one table replaced by its derivative
table (+1 at the weight, -1 at its block's last entry); these columns
are computed over the field images of the tables and reduced mod the
field prime, and their rank at random interior points, as in the
decomposition, is the effective dimension almost surely.  Deliberately
not scalable: refuses models beyond fixed state and parameter limits.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .model import TreeModel, require_valid, standard_dimension
from .rank import (
    DEFAULT_TRIALS,
    PRIME,
    _check_interior,
    _full_block,
    derive_seed,
    exact_rank,
    residues,
    sample_simplex_block,
)

STATE_LIMIT = 4096
PARAMETER_LIMIT = 256


class OracleLimitError(RuntimeError):
    """The model is too large for the brute force; use the decomposition."""


class Factor:
    """Dense table over a strictly increasing tuple of variable ids.

    Values are stored row-major with the first variable most
    significant, so a factor whose scope is the sorted observed ids
    already enumerates joint states in canonical lexicographic order.
    Values need only ``+`` and ``*``: rationals for the joint, integers
    for the Jacobian columns.
    """

    __slots__ = ("vars", "cards", "values")

    def __init__(self, vars, cards, values):
        self.vars = tuple(vars)
        self.cards = tuple(cards)
        self.values = list(values)
        if list(self.vars) != sorted(self.vars):
            raise ValueError("factor scope must be sorted by variable id")
        size = 1
        for c in self.cards:
            size *= c
        if len(self.values) != size:
            raise ValueError("factor value count does not match its shape")

    def _strides(self) -> dict[int, int]:
        strides: dict[int, int] = {}
        acc = 1
        for var, card in zip(reversed(self.vars), reversed(self.cards)):
            strides[var] = acc
            acc *= card
        return strides

    def multiply(self, other: "Factor") -> "Factor":
        merged = sorted(set(self.vars) | set(other.vars))
        card_of = dict(zip(self.vars, self.cards))
        card_of.update(zip(other.vars, other.cards))
        cards = [card_of[v] for v in merged]

        sa_map = self._strides()
        sb_map = other._strides()
        sa = [sa_map.get(v, 0) for v in merged]
        sb = [sb_map.get(v, 0) for v in merged]

        total = 1
        for c in cards:
            total *= c
        av, bv = self.values, other.values
        counters = [0] * len(merged)
        ia = ib = 0
        out = []
        append = out.append
        for _ in range(total):
            append(av[ia] * bv[ib])
            pos = len(merged) - 1
            while pos >= 0:
                counters[pos] += 1
                ia += sa[pos]
                ib += sb[pos]
                if counters[pos] < cards[pos]:
                    break
                ia -= sa[pos] * counters[pos]
                ib -= sb[pos] * counters[pos]
                counters[pos] = 0
                pos -= 1
        return Factor(merged, cards, out)

    def marginalize(self, var_id: int) -> "Factor":
        axis = self.vars.index(var_id)
        card = self.cards[axis]
        inner = 1
        for c in self.cards[axis + 1 :]:
            inner *= c
        outer = 1
        for c in self.cards[:axis]:
            outer *= c
        values = self.values
        out = []
        for o in range(outer):
            base = o * card * inner
            for i in range(inner):
                acc = values[base + i]
                for k in range(1, card):
                    acc = acc + values[base + i + k * inner]
                out.append(acc)
        return Factor(
            self.vars[:axis] + self.vars[axis + 1 :],
            self.cards[:axis] + self.cards[axis + 1 :],
            out,
        )


@dataclass(frozen=True)
class FullParameterPoint:
    """Interior parameter point of the whole model, rooted at the lowest id.

    ``root_weights`` are the free weights of the root distribution;
    ``conditionals`` maps every non-root variable id to one tuple of free
    weights per parent state.
    """

    root_id: int
    root_weights: tuple[Fraction, ...]
    conditionals: tuple[tuple[int, tuple[tuple[Fraction, ...], ...]], ...]


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
    root = model.variables[0].id
    root_weights = sample_simplex_block(rng, model.variable(root).cardinality)
    conditionals = []
    for var in model.variables[1:]:
        parent_card = model.variable(parents[var.id]).cardinality
        blocks = tuple(
            sample_simplex_block(rng, var.cardinality) for _ in range(parent_card)
        )
        conditionals.append((var.id, blocks))
    return FullParameterPoint(root, root_weights, tuple(conditionals))


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
    _check_interior(tables[root][0], "root weights")
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
            _check_interior(tables[vid][-1], f"variable {var.name!r}")
    return tables


def _table_factor(model: TreeModel, parents, var_id: int, full) -> Factor:
    """Factor of one variable's table from completed blocks,
    ``full[parent_state][state]``: over the sorted pair (parent, child),
    or over the root alone, which has one block."""
    v_card = model.variable(var_id).cardinality
    if var_id not in parents:
        return Factor((var_id,), (v_card,), full[0])
    parent_id = parents[var_id]
    p_card = model.variable(parent_id).cardinality
    if parent_id < var_id:
        values = [full[ps][vs] for ps in range(p_card) for vs in range(v_card)]
        return Factor((parent_id, var_id), (p_card, v_card), values)
    values = [full[ps][vs] for vs in range(v_card) for ps in range(p_card)]
    return Factor((var_id, parent_id), (v_card, p_card), values)


def _collapse(model: TreeModel, children, order, factors: dict[int, Factor]) -> list:
    """Sum-product the per-variable factors down to the observed joint."""
    latent = {v.id for v in model.latent_variables}
    up: dict[int, Factor] = {}
    for vid in reversed(order):
        factor = factors[vid]
        for child in children[vid]:
            factor = factor.multiply(up.pop(child))
        if vid in latent:
            factor = factor.marginalize(vid)
        up[vid] = factor
    result = up.pop(order[0])
    return result.values


def joint_observed_distribution(
    model: TreeModel, point: FullParameterPoint
) -> tuple[Fraction, ...]:
    """Exact joint distribution of the observed variables.

    Entries are indexed lexicographically over the observed variables in
    ascending id order and sum to exactly one.
    """
    require_valid(model)
    parents, children, order = _rooting(model)
    factors = {
        vid: _table_factor(model, parents, vid, full)
        for vid, full in _full_tables(model, point, parents).items()
    }
    return tuple(_collapse(model, children, order, factors))


def observed_joint_jacobian(
    model: TreeModel, point: FullParameterPoint
) -> tuple[tuple[int, ...], ...]:
    """Jacobian of the observed joint in every free parameter, mod PRIME.

    Rows cover all observed joint states except the lexicographically
    last one.  Columns follow the canonical parameter order: the root
    block, then ascending non-root ids, each with one block per parent
    state.  Column ``j`` is one sum-product over the field images of the
    tables, with the table of parameter ``j`` replaced by its derivative.
    """
    require_valid(model)
    parents, children, order = _rooting(model)
    tables = _full_tables(model, point, parents)
    base = {
        vid: _table_factor(model, parents, vid, [residues(b) for b in full])
        for vid, full in tables.items()
    }
    columns = []
    for vid in sorted(tables):
        blocks = tables[vid]
        card = len(blocks[0])
        for parent_state in range(len(blocks)):
            for state in range(card - 1):
                slope = [[0] * card for _ in blocks]
                slope[parent_state][state] = 1
                slope[parent_state][-1] = -1
                factors = dict(base)
                factors[vid] = _table_factor(model, parents, vid, slope)
                values = _collapse(model, children, order, factors)
                columns.append([x % PRIME for x in values[:-1]])
    if len(columns) != standard_dimension(model):
        raise AssertionError("parameter column count does not match dimension")
    return tuple(zip(*columns))


def oracle_effective_dimension(
    model: TreeModel,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> int:
    """Effective dimension by direct Jacobian rank, without decomposition.

    Raises :class:`OracleLimitError` when the observed joint or the
    parameter count is too large for a dense exact computation.
    """
    require_valid(model)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    states = 1
    for var in model.observed_variables:
        states *= var.cardinality
    if states > STATE_LIMIT:
        raise OracleLimitError(
            f"observed joint has {states} states (limit {STATE_LIMIT}); "
            "use the decomposition pipeline"
        )
    n_params = standard_dimension(model)
    if n_params > PARAMETER_LIMIT:
        raise OracleLimitError(
            f"model has {n_params} parameters (limit {PARAMETER_LIMIT}); "
            "use the decomposition pipeline"
        )

    ranks = []
    for trial in range(trials):
        rng = random.Random(derive_seed(seed, "oracle-trial", trial))
        point = sample_full_point(model, rng)
        ranks.append(exact_rank(observed_joint_jacobian(model, point)))
    return max(ranks)
