"""Exact rational linear algebra and latent-class Jacobian ranks.

The rank engine works over arbitrary-precision rationals with no
tolerance anywhere: rows are cleared to integers (row scaling never
changes rank) and reduced by fraction-free elimination with gcd content
control.  On top of it sits the closed-form Jacobian of a latent-class
component and the randomized regular-rank estimator: the rank of the
Jacobian at a random interior parameter point equals its almost-
everywhere rank except on a measure-zero set, and an unlucky point can
only err low, so the maximum over independent trials is reported.
"""

from __future__ import annotations

import hashlib
import itertools
import logging
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

if TYPE_CHECKING:
    from .decompose import LcComponent

# Random simplex points draw integer numerators in [1, NUMERATOR_BOUND].
NUMERATOR_BOUND = 2**20
DEFAULT_TRIALS = 3

log = logging.getLogger(__name__)

_ZERO = Fraction(0)


def derive_seed(*parts) -> int:
    """Derive an independent integer seed from a tuple of labels.

    Hash-based so that per-component and per-trial random streams are
    reproducible and unrelated to each other.
    """
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


@dataclass(frozen=True)
class RationalMatrix:
    """Dense matrix of rationals; shape is fixed at construction."""

    entries: tuple[tuple[Fraction, ...], ...]
    n_cols: int

    def __post_init__(self) -> None:
        for row in self.entries:
            if len(row) != self.n_cols:
                raise ValueError(
                    f"ragged matrix: row of length {len(row)}, expected {self.n_cols}"
                )

    @property
    def m(self) -> int:
        return len(self.entries)

    @property
    def n(self) -> int:
        return self.n_cols

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "RationalMatrix":
        converted = tuple(
            tuple(x if isinstance(x, Fraction) else Fraction(x) for x in row)
            for row in rows
        )
        n_cols = len(converted[0]) if converted else 0
        return cls(converted, n_cols)

    def transpose(self) -> "RationalMatrix":
        cols = tuple(zip(*self.entries)) if self.entries else ()
        return RationalMatrix(cols, self.m)


def _integer_row(row: Sequence[Fraction]) -> list[int]:
    den = 1
    for x in row:
        d = x.denominator
        den = den * d // math.gcd(den, d)
    ints = [x.numerator * (den // x.denominator) for x in row]
    _strip_content(ints)
    return ints


def _strip_content(ints: list[int]) -> None:
    g = 0
    for x in ints:
        g = math.gcd(g, x)
        if g == 1:
            return
    if g > 1:
        ints[:] = [x // g for x in ints]


def _first_nonzero(row: list[int], start: int) -> Optional[int]:
    for j in range(start, len(row)):
        if row[j]:
            return j
    return None


def exact_rank(matrix: RationalMatrix) -> int:
    """Rank over the rationals, computed exactly.

    Incremental fraction-free row echelon: each row is cleared to
    integers, reduced against the pivot rows collected so far, and
    either vanishes or contributes a new pivot.  Pivot rows have zeros
    left of their lead column, so eliminating lead columns in increasing
    order never reintroduces a cleared column.  Stops early once the
    rank reaches min(m, n).
    """
    n = matrix.n_cols
    cap = min(matrix.m, n)
    if cap == 0:
        return 0
    basis: dict[int, list[int]] = {}
    for row in matrix.entries:
        ints = _integer_row(row)
        lead = _first_nonzero(ints, 0)
        while lead is not None:
            pivot_row = basis.get(lead)
            if pivot_row is None:
                break
            p = pivot_row[lead]
            q = ints[lead]
            g = math.gcd(p, q)
            p //= g
            q //= g
            for j in range(lead, n):
                ints[j] = p * ints[j] - q * pivot_row[j]
            _strip_content(ints)
            lead = _first_nonzero(ints, lead + 1)
        if lead is not None:
            basis[lead] = ints
            if len(basis) == cap:
                break
    return len(basis)


@dataclass(frozen=True)
class LcParameterPoint:
    """Interior parameter point of a latent-class component.

    ``class_weights`` holds the free weights of the latent classes (one
    fewer than the latent cardinality); ``conditionals[i][z]`` holds the
    free weights of neighbor ``i``'s distribution given class ``z``.
    The implied last weight of every block must stay strictly positive.
    """

    class_weights: tuple[Fraction, ...]
    conditionals: tuple[tuple[tuple[Fraction, ...], ...], ...]


def sample_simplex_block(rng: random.Random, size: int) -> tuple[Fraction, ...]:
    """Free weights of a random interior point of the (size-1)-simplex.

    Draws ``size`` positive integer numerators up to ``NUMERATOR_BOUND``
    and normalizes by their sum; returns all but the last weight.  Every
    weight, including the implied last one, is strictly positive and
    exactly representable.
    """
    draws = [rng.randint(1, NUMERATOR_BOUND) for _ in range(size)]
    total = sum(draws)
    return tuple(Fraction(a, total) for a in draws[:-1])


def sample_lc_point(component: "LcComponent", rng: random.Random) -> LcParameterPoint:
    c = component.latent_cardinality
    weights = sample_simplex_block(rng, c)
    conditionals = tuple(
        tuple(sample_simplex_block(rng, card) for _ in range(c))
        for _, card in component.neighbors
    )
    return LcParameterPoint(weights, conditionals)


def _full_block(free: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(free) + (Fraction(1) - sum(free, _ZERO),)


def _check_interior(block: tuple[Fraction, ...], label: str) -> None:
    for value in block:
        if value <= 0:
            raise ValueError(f"parameter point lies on a simplex boundary ({label})")


def _check_lc_point(component: "LcComponent", point: LcParameterPoint) -> None:
    c = component.latent_cardinality
    if len(point.class_weights) != c - 1:
        raise ValueError(
            f"class weight count {len(point.class_weights)} does not match "
            f"latent cardinality {c}"
        )
    if len(point.conditionals) != len(component.neighbors):
        raise ValueError("conditional block count does not match neighbor count")
    _check_interior(_full_block(point.class_weights), "class weights")
    for i, (var_id, card) in enumerate(component.neighbors):
        blocks = point.conditionals[i]
        if len(blocks) != c:
            raise ValueError(f"neighbor {var_id}: expected {c} conditional blocks")
        for z, block in enumerate(blocks):
            if len(block) != card - 1:
                raise ValueError(
                    f"neighbor {var_id}, class {z}: expected {card - 1} free weights"
                )
            _check_interior(_full_block(block), f"neighbor {var_id}, class {z}")


def lc_jacobian_at(
    component: "LcComponent", point: LcParameterPoint
) -> RationalMatrix:
    """Jacobian of the observed joint of a latent-class component.

    The joint probability of a neighbor-state tuple ``y`` is
    ``sum_z pi_z * prod_i phi[i][z][y_i]`` with the last weight of every
    block substituted by one minus the rest.  Rows enumerate all joint
    neighbor states except the all-last-states one, in lexicographic
    order; columns are the free class weights followed by the free
    conditional weights grouped by neighbor, then class, then state.
    """
    _check_lc_point(component, point)
    c = component.latent_cardinality
    cards = [card for _, card in component.neighbors]
    pi = _full_block(point.class_weights)
    phi = [
        [_full_block(point.conditionals[i][z]) for z in range(c)]
        for i in range(len(cards))
    ]
    n = (c - 1) + c * sum(card - 1 for card in cards)

    all_last = tuple(card - 1 for card in cards)
    rows = []
    for state in itertools.product(*(range(card) for card in cards)):
        if state == all_last:
            continue
        prods = []
        for z in range(c):
            p = pi[z]
            for i, y in enumerate(state):
                p *= phi[i][z][y]
            prods.append(p)
        # prods[z] = pi_z * prod_i phi[i][z][y_i]
        row = []
        last = c - 1
        for z in range(c - 1):
            row.append(prods[z] / pi[z] - prods[last] / pi[last])
        for i, card in enumerate(cards):
            if card == 1:
                continue
            y_i = state[i]
            for z in range(c):
                base = prods[z] / phi[i][z][y_i]
                for y_free in range(card - 1):
                    if y_i == y_free:
                        row.append(base)
                    elif y_i == card - 1:
                        row.append(-base)
                    else:
                        row.append(_ZERO)
        if len(row) != n:
            raise AssertionError("jacobian column count mismatch")
        rows.append(tuple(row))
    return RationalMatrix(tuple(rows), n)


def lc_rank_trials(
    component: "LcComponent", trials: int = DEFAULT_TRIALS, seed: int = 0
) -> tuple[int, ...]:
    """Jacobian rank at one random interior point per trial.

    A specific point can only under-estimate the almost-everywhere rank,
    so callers take the maximum; disagreeing trials are logged.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    ranks = []
    for trial in range(trials):
        rng = random.Random(derive_seed(seed, "lc-trial", trial))
        point = sample_lc_point(component, rng)
        ranks.append(exact_rank(lc_jacobian_at(component, point)))
    if len(set(ranks)) > 1:
        log.warning(
            "rank trials disagreed for latent id %s: %s (keeping the max)",
            component.latent_id,
            tuple(ranks),
        )
    return tuple(ranks)
