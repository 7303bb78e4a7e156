"""Brute-force effective dimension via the full observed-joint Jacobian.

Ground truth for the decomposition pipeline on small models: the joint
distribution of the observed variables is computed exactly by rational
sum-product over the tree, its Jacobian with respect to every free
parameter by first-order dual-number evaluation (one exact directional
derivative per parameter), and its rank at random interior points, mod
the field prime as in the decomposition, is the effective dimension
almost surely.  Deliberately not scalable: refuses models beyond fixed
state and parameter limits.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .model import TreeModel, require_valid, standard_dimension
from .rank import (
    DEFAULT_TRIALS,
    RationalMatrix,
    _check_interior,
    _full_block,
    derive_seed,
    exact_rank,
    sample_simplex_block,
)

STATE_LIMIT = 4096
PARAMETER_LIMIT = 256

_ZERO = Fraction(0)
_ONE = Fraction(1)


class OracleLimitError(RuntimeError):
    """The model is too large for the brute force; use the decomposition."""


class Dual:
    """value + tangent * eps with rational components (eps^2 = 0)."""

    __slots__ = ("value", "tangent")

    def __init__(self, value, tangent=_ZERO):
        self.value = value
        self.tangent = tangent

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value + other.value, self.tangent + other.tangent)
        return Dual(self.value + other, self.tangent)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value - other.value, self.tangent - other.tangent)
        return Dual(self.value - other, self.tangent)

    def __rsub__(self, other):
        return Dual(other - self.value, -self.tangent)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(
                self.value * other.value,
                self.value * other.tangent + self.tangent * other.value,
            )
        return Dual(self.value * other, self.tangent * other)

    __rmul__ = __mul__

    def __repr__(self):
        return f"Dual({self.value}, {self.tangent})"


def _tangent_of(x) -> Fraction:
    return x.tangent if isinstance(x, Dual) else _ZERO


class Factor:
    """Dense table over a strictly increasing tuple of variable ids.

    Values are stored row-major with the first variable most
    significant, so a factor whose scope is the sorted observed ids
    already enumerates joint states in canonical lexicographic order.
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

    def blocks_for(self, var_id: int) -> tuple[tuple[Fraction, ...], ...]:
        for vid, blocks in self.conditionals:
            if vid == var_id:
                return blocks
        raise KeyError(f"no conditional blocks for variable id {var_id}")


def _rooting(model: TreeModel):
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
    return root, parents, children, order


def sample_full_point(model: TreeModel, rng: random.Random) -> FullParameterPoint:
    require_valid(model)
    root, parents, _, _ = _rooting(model)
    root_weights = sample_simplex_block(rng, model.variable(root).cardinality)
    conditionals = []
    for var in model.variables[1:]:
        parent_card = model.variable(parents[var.id]).cardinality
        blocks = tuple(
            sample_simplex_block(rng, var.cardinality) for _ in range(parent_card)
        )
        conditionals.append((var.id, blocks))
    return FullParameterPoint(root, root_weights, tuple(conditionals))


def _dual_block(free: Sequence[Fraction], slot: int) -> list:
    out = [
        Dual(value, _ONE if i == slot else _ZERO) for i, value in enumerate(free)
    ]
    out.append(Dual(_ONE - sum(free, _ZERO), Fraction(-1)))
    return out


def _check_full_point(model: TreeModel, point: FullParameterPoint) -> None:
    root, parents, _, _ = _rooting(model)
    if point.root_id != root:
        raise ValueError(
            f"point rooted at id {point.root_id}, model roots at id {root}"
        )
    root_card = model.variable(root).cardinality
    if len(point.root_weights) != root_card - 1:
        raise ValueError("root weight count does not match root cardinality")
    _check_interior(_full_block(point.root_weights), "root weights")
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
        for block in blocks:
            if len(block) != var.cardinality - 1:
                raise ValueError(
                    f"variable {var.name!r}: block size does not match cardinality"
                )
            _check_interior(_full_block(block), f"variable {var.name!r}")


def _table_factor(model: TreeModel, parent_id: int, var_id: int, full) -> Factor:
    """CPT factor over the sorted pair (parent, child), from completed
    blocks: ``full[parent_state][state]``."""
    p_card = model.variable(parent_id).cardinality
    v_card = model.variable(var_id).cardinality
    if parent_id < var_id:
        values = [full[ps][vs] for ps in range(p_card) for vs in range(v_card)]
        return Factor((parent_id, var_id), (p_card, v_card), values)
    values = [full[ps][vs] for vs in range(v_card) for ps in range(p_card)]
    return Factor((var_id, parent_id), (v_card, p_card), values)


def _base_factors(model: TreeModel, point: FullParameterPoint) -> dict[int, Factor]:
    root, parents, _, _ = _rooting(model)
    factors = {
        root: Factor(
            (root,),
            (model.variable(root).cardinality,),
            _full_block(point.root_weights),
        )
    }
    for vid, blocks in point.conditionals:
        full = [_full_block(block) for block in blocks]
        factors[vid] = _table_factor(model, parents[vid], vid, full)
    return factors


def _collapse(model: TreeModel, factors: dict[int, Factor]) -> list:
    """Sum-product the per-node factors down to the observed joint."""
    _, _, children, order = _rooting(model)
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
    _check_full_point(model, point)
    return tuple(_collapse(model, _base_factors(model, point)))


def _parameter_slots(model: TreeModel):
    """Canonical parameter order: root block, then ascending non-root ids,
    each with one block per parent state."""
    root, parents, _, _ = _rooting(model)
    slots = []
    root_card = model.variable(root).cardinality
    for state in range(root_card - 1):
        slots.append((root, None, state))
    for var in model.variables[1:]:
        parent_card = model.variable(parents[var.id]).cardinality
        for parent_state in range(parent_card):
            for state in range(var.cardinality - 1):
                slots.append((var.id, parent_state, state))
    return slots


def observed_joint_jacobian(
    model: TreeModel, point: FullParameterPoint
) -> RationalMatrix:
    """Jacobian of the observed joint with respect to every free parameter.

    One dual-number sum-product pass per parameter; rows cover all
    observed joint states except the lexicographically last one.
    """
    require_valid(model)
    _check_full_point(model, point)
    root, parents, _, _ = _rooting(model)
    base = _base_factors(model, point)
    slots = _parameter_slots(model)
    if len(slots) != standard_dimension(model):
        raise AssertionError("parameter slot count does not match dimension")

    columns = []
    for var_id, parent_state, state in slots:
        factors = dict(base)
        if var_id == root:
            card = model.variable(root).cardinality
            factors[root] = Factor(
                (root,), (card,), _dual_block(point.root_weights, state)
            )
        else:
            blocks = point.blocks_for(var_id)
            full = [_full_block(block) for block in blocks]
            full[parent_state] = _dual_block(blocks[parent_state], state)
            factors[var_id] = _table_factor(model, parents[var_id], var_id, full)
        values = _collapse(model, factors)
        columns.append([_tangent_of(x) for x in values[:-1]])

    m = 0 if not columns else len(columns[0])
    rows = [tuple(col[i] for col in columns) for i in range(m)]
    return RationalMatrix(tuple(rows), len(columns))


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
