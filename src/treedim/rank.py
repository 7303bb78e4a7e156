"""Prime-field rank engine and the packed Jacobian passes of tree models.

Ranks are exact, taken in GF(p), p = PRIME = 2**31 - 1, of matrices
given as rows of integers.  Elimination packs each row into one int, one
fixed-width slot per column, wide enough that no carry crosses a slot,
so a pivot is applied to a whole row by one big-int multiply-add;
pivots have unit leads, and a wide matrix is ranked as its transpose.

No Jacobian is written out state by state.  A functional with one weight
vector ``a_v`` per observed variable contracts the observed joint to
``S = sum_x prod_v a_v(x_v) P(x)``; one inside and one outside pass over
the rooted tree give the gradients of all functionals at once, a slot
each (the differential approach of Darwiche, JACM 2003).  One sampler,
:func:`draw_point`, and one driver, :func:`jacobian`, serve the oracle's
whole models and the latent-class components' stars.  A point lists a
completed table per variable, ascending ids, a block per parent state;
free weights and functional entries are residues drawn by
:func:`field_draws`, and each block's last weight is one minus the rest.

The error is one-sided.  Jacobian entries are integer polynomials in the
free weights, so a minor that is non-zero mod p at any field point is a
non-zero polynomial over the rationals: the rank mod p there is at most
the generic rank over the rationals, which the open simplex, being
Zariski-dense, attains almost everywhere, so a point need be neither
rational nor interior.  ``k`` functionals' gradients are the rows of a
projection ``R J``, which can only lower the rank, and rank-one
functionals span the dual of the joint space.  Each draw has point mass
at most mu, about 2**-31, so by Schwartz-Zippel a random point and ``R``
lose a rank up to ``k`` with probability at most deg * mu, and ``t``
independent trials all do with at most its ``t``-th power.  An unlucky
draw can only err low: the maximum over trials is reported, and a rank
that reaches ``k`` is proven.  The elimination adds no error: scaling a
pivot by the inverse of its non-zero lead, or transposing, keeps the
rank over GF(p) exactly.

A latent-class rank is settled by the first of four ways that applies: a
one-state latent or no rows, by a count; from 2**6 Jacobian cells on, a
theorem, with no draw (:func:`certified_rank`): a determinantal variety
(Harris, Algebraic Geometry, Lecture 12), Kruskal's uniqueness (Kruskal
1977; Allman, Matias & Rhodes, Ann. Statist. 2009) or non-defective binary
secants (Catalisano, Geramita & Gimigliano 2011), then a first trial that
reaches its bound; else the maximum of the trials.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import logging
import math
import random
import struct
from operator import mul, sub
from typing import TYPE_CHECKING, Sequence

from .model import capped_product

if TYPE_CHECKING:
    from .decompose import LcComponent

DEFAULT_TRIALS = 3
MAX_TRIALS = 100  # more add nothing: each trial errs with probability below deg * mu
# Ranks are taken in GF(PRIME), a Mersenne prime; from _PROOF_CELLS
# latent-class Jacobian cells on, a certificate or a first trial may settle one.
PRIME, _PROOF_CELLS = 2**31 - 1, 2**6
# No latent-class Jacobian, nor the oracle's k rows over its point, has more cells.
CELL_LIMIT = 2**18

log = logging.getLogger(__name__)


class CellLimitError(ValueError):
    """A rank, of a latent-class component or the oracle's whole model,
    needs a Jacobian of over ``CELL_LIMIT`` cells."""


def _figure(x: int) -> str:
    """``x`` in digits below 10**12, else as ``m.me<exponent>``, which needs
    no ``str`` of a huge int.  ``x`` is positive."""
    e = math.log10(x)
    mantissa, carry = f"{10 ** (e % 1):.1e}".split("e")  # 9.96 gives 1.0e+01
    return str(x) if e < 12 else f"{mantissa}e{int(e) + int(carry)}"


def check_cells(what: str, rows: int, width: int) -> None:
    """Raise :class:`CellLimitError` if ``rows`` x ``width`` exceeds
    ``CELL_LIMIT``; ``what`` names the rank in the message."""
    if rows * width > CELL_LIMIT:
        raise CellLimitError(
            f"{what} needs {_figure(rows)} x {_figure(width)} cells > {CELL_LIMIT}"
        )


def check_trials(trials: int) -> None:
    """Refuse a trial count outside [1, ``MAX_TRIALS``] with a ValueError."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials > MAX_TRIALS:
        raise ValueError(f"trials must be <= {MAX_TRIALS}")


def derive_seed(*parts) -> int:
    """Derive an independent integer seed from a tuple of labels.

    Hash-based so that per-component and per-trial random streams are
    reproducible and unrelated to each other.
    """
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def field_draws(rng: random.Random, count: int) -> list[int]:
    """``count`` random elements of GF(PRIME), from one bulk draw.

    Each is a uniform 64-bit word reduced mod p, so no value has point
    mass above ceil(2**64 / p) / 2**64: close enough to uniform for the
    Schwartz-Zippel bound d * mu on a degree-d minor.  As 2**64 = (2**33 +
    4)p + 4, mu = (2**33 + 5)/2**64, about 2**-31.
    """
    words = struct.unpack(f"<{count}Q", rng.randbytes(8 * count))
    return [w % PRIME for w in words]


def _residues(values: Sequence[int]) -> Sequence[int]:
    """``values`` mod p; values all in [0, p) come back as they are."""
    if values and 0 <= min(values) and max(values) < PRIME:
        return values
    return [x % PRIME for x in values]


class _Slots:
    """Values in [0, 2**64) packed into one int, a W-bit slot each, slot 0 lowest.

    W is ``bits`` rounded up to whole bytes; a caller picks ``bits`` so that
    no slot of a sum it forms reaches ``2**bits``: no carry crosses a slot,
    and one big-int multiply-add acts on every slot.  With PRIME = 2**e - 1,
    two rounds of the Mersenne fold ``(v & low) + ((v >> e) & high)`` take
    every slot below ``2**e + 2**(W-e)``, then below ``2**e + 2**(W-2e) <
    2p``, which needs W <= 3e - 1 = 92 bits: a wider layout raises.
    """

    def __init__(self, count: int, bits: int):
        self.width, self.e = 8 * -(-bits // 8), PRIME.bit_length()
        if self.width > 3 * self.e - 1:
            raise ValueError(f"no {self.width}-bit slot folds below 2p")
        self.layout = struct.Struct("<" + f"Q{self.width // 8 - 8}x" * count)
        ones = self.ones = self.pack([1] * count)
        self.low, self.high = ones * PRIME, ones * ((1 << (self.width - self.e)) - 1)
        self.twop, self.mask = ones * 2 * PRIME, (1 << self.width) - 1

    def pack(self, values: Sequence[int]) -> int:
        return int.from_bytes(self.layout.pack(*values), "little")

    def unpack(self, vec: int) -> tuple[int, ...]:
        return self.layout.unpack(vec.to_bytes(self.layout.size, "little"))

    def fold(self, vec: int) -> int:
        vec = (vec & self.low) + ((vec >> self.e) & self.high)
        return (vec & self.low) + ((vec >> self.e) & self.high)


@functools.lru_cache(maxsize=64)  # each: four ints of count * W bits and a struct
def _layout(count: int, bits: int) -> _Slots:
    return _Slots(count, bits)  # built once per shape, not per call


def exact_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over GF(p), p = PRIME, of a matrix given as rows of integers.

    Entries must be integers.  A matrix with more columns than rows is
    ranked as its transpose: ``n`` below is min(m, n).  Each row, reduced
    mod p, is packed into one int with a :class:`_Slots` slot per column,
    column 0 lowest, and reduced left to right: the low slot is read mod
    p as ``f``, a pivot leading there is applied to every slot at once by
    ``vec += f * neg``, and the finished slot is shifted out.  A row whose
    low slot survives becomes a pivot, scaled to a unit lead: ``neg = 2p -
    fold(fold(row) * f**-1)`` per slot, in ``(0, 2p]``, with lead -1 mod p.
    Returns at the ``n``-th pivot, unscaled.

    No carry crosses a slot: with p = 2**e - 1, a row starts below 2**e
    per slot and sees at most n updates, each adding ``f * neg < 2**e *
    2**(e+1)``, so slots stay below ``2**(2e + 2 + n.bit_length())``, and
    a folded row times ``f**-1`` below ``2**(2e + 1)``.  Exact integer
    arithmetic congruent mod p gives the rank over GF(p).
    """
    n = len(rows[0]) if rows else 0
    for row in rows:
        if len(row) != n:
            raise ValueError(f"ragged matrix: row of length {len(row)}, expected {n}")
    if n > len(rows):  # after the check: zip would cut ragged rows short
        rows, n = list(zip(*rows)), len(rows)
    if n == 0:
        return 0
    p = PRIME
    slots = _layout(n, 2 * p.bit_length() + 2 + n.bit_length())
    width, twop, mask, fold = slots.width, slots.twop, slots.mask, slots.fold
    basis: list[int | None] = [None] * n  # by lead: 2p - pivot, its lead scaled to 1
    for row in rows:
        vec = slots.pack(_residues(row))
        for lead in range(n):
            f = (vec & mask) % p
            if f:
                neg = basis[lead]
                if neg is None:
                    if basis.count(None) == 1:  # rank n: no row needs this pivot
                        return n
                    unit = fold(fold(vec) * pow(f, -1, p))
                    basis[lead] = (twop >> lead * width) - unit
                    break
                vec += f * neg
            vec >>= width
    return n - basis.count(None)


def _functionals(rng: random.Random, cards: Sequence[int], k: int):
    """Weights of ``k`` random functionals from one :func:`field_draws` call.

    Returns ``weights[i][x][j]``, functional ``j``'s weight of variable
    ``i`` at state ``x``: one table per variable, a row per state and an
    entry per functional, the layout :func:`_inside` reads.  Draw
    ``j * sum(cards) + s`` is that weight for ``s = sum(cards[:i]) + x``.
    """
    width = sum(cards)
    draws = field_draws(rng, k * width)
    starts = itertools.accumulate(cards, initial=0)
    return [
        [draws[s::width] for s in range(a, a + card)] for a, card in zip(starts, cards)
    ]


def _times(a, b):
    """Entrywise product mod p of two ``[state][functional]`` arrays."""
    return [[x * y % PRIME for x, y in zip(ax, bx)] for ax, bx in zip(a, b)]


def _inside(order, children, tables, weights, k):
    """Inside vectors and upward messages of all functionals at once.

    ``order`` lists the variables root first, each before its children;
    ``tables[v][u]`` is ``v``'s completed block at parent state ``u`` (the
    root has one), and ``weights[v][x][j]`` functional ``j``'s weight of
    an observed ``v`` at ``x``.  The factors of ``v``, arrays ``[x][j]``,
    are its children's messages in order, then its weights, all ones for
    a latent leaf; ``partial[v][i]`` is the entrywise product of the first
    ``i + 1``, ``beta[v] = partial[v][-1]``.  The message to the parent at
    state ``u``, ``up[v][u][j] = sum_x tables[v][u][x] * beta[v][x][j]``,
    is one packed sum, a slot per functional, its slots folded below 2p;
    ``up[root][0][j]`` is functional ``j``'s ``S``, mod the field prime
    p = 2**e - 1.  Returns the slots too.
    """
    # A packed sum adds at most c products of a table entry, below p, and
    # a vector entry, below 2p, c the largest cardinality: below c * 2**(2e+1).
    card = max(len(blocks[0]) for blocks in tables.values())
    slots = _layout(k, 2 * PRIME.bit_length() + 1 + card.bit_length())
    pack, unpack, fold = slots.pack, slots.unpack, slots.fold
    partial, up = {}, {}
    for v in reversed(order):
        factors = [up[c] for c in children[v]]
        if v in weights or not factors:
            factors.append(weights.get(v) or [[1] * k] * len(tables[v][0]))
        if len(factors) > 1:
            factors = list(itertools.accumulate(factors, _times))
        partial[v], beta = factors, [*map(pack, factors[-1])]
        up[v] = [unpack(fold(sum(map(mul, row, beta)))) for row in tables[v]]
    return partial, up, slots


def _gradient(order, children, tables, weights, partial, up, slots):
    """Gradient columns of the scalars ``S``, mod p, per variable.

    ``outer[v][u]`` is the weight outside ``v``'s subtree and table at
    parent state ``u``.  A free weight moves its entry up and its block's
    last entry down, so its column is ``outer[v][u] * (beta[v][x] -
    beta[v][last])``.  ``down[x] = sum_u tables[v][u][x] * outer[v][u]`` is
    a packed sum, as in :func:`_inside`; a child's outer weight is ``down``
    times the messages of the children after it, taken from the right,
    times ``partial`` of those before it.  The root's outer weight is one.
    """
    pack, unpack, fold = slots.pack, slots.unpack, slots.fold
    outer, grad = {}, {}
    for v in order:
        b, kids = partial[v][-1], children[v]
        diffs = [list(map(sub, bx, b[-1])) for bx in b[:-1]]
        if v not in outer:  # the root: down[x] is its entry x in every slot
            grad[v] = [[x % PRIME for x in d] for d in diffs]
            down = [[x] * len(b[0]) for x in tables[v][0]]
        else:
            out = outer[v]
            grad[v] = [
                [x * y % PRIME for x, y in zip(ox, d)] for ox in out for d in diffs
            ]
            if not kids:
                continue
            out = [*map(pack, out)]
            down = [unpack(fold(sum(map(mul, col, out)))) for col in zip(*tables[v])]
        if v in weights:
            down = _times(down, weights[v])
        for i in range(len(kids) - 1, 0, -1):
            outer[kids[i]] = _times(down, partial[v][i - 1])
            down = _times(down, up[kids[i]])
        if kids:
            outer[kids[0]] = down
    return grad


def _shapes(model) -> list[tuple[int, int]]:
    """(blocks, cardinality) of each variable's table, ascending ids: one
    block per state of its parent in the tree rooted at the lowest id."""
    parents, by_id = model._rooting[0], model._by_id
    return [
        (by_id[parents[v.id]].cardinality if v.id in parents else 1, v.cardinality)
        for v in model.variables
    ]


def draw_point(model, rng: random.Random) -> list:
    """Completed tables of a tree model, in GF(PRIME): one per variable in
    ascending id order, one block per parent state (the root has one).
    The free weights come from one :func:`field_draws` call in that order,
    a slice per block; each block's last weight is one minus the rest."""
    shapes = _shapes(model)
    draws = field_draws(rng, sum(b * (card - 1) for b, card in shapes))
    point, end = [], 0
    for blocks, card in shapes:
        point.append(table := [])
        for _ in range(blocks):
            block, end = draws[end : end + card - 1], end + card - 1
            block.append((1 - sum(block)) % PRIME)
            table.append(block)
    return point


def jacobian(model, point, weights) -> tuple[tuple[int, ...], ...]:
    """Gradients of functionals of a tree model's observed joint, mod p.

    ``point`` holds completed tables (:func:`draw_point`) at any integer
    point: the passes read no block as summing to one.  ``weights[i][x][j]``
    is functional ``j``'s weight of observed variable ``i``, in ascending
    id order, at state ``x``, any integers.  Row ``j`` is functional
    ``j``'s gradient from the passes; columns are the free weights in the
    point's order.  Entries lie in [0, p).
    """
    if [[len(b) for b in t] for t in point] != [[c] * b for b, c in _shapes(model)]:
        raise ValueError("point does not match the model's tables")
    _, children, order = model._rooting
    variables, observed = model.variables, model.observed_variables
    k = len(weights[0][0]) if weights and weights[0] else 0
    shape = [[k] * v.cardinality for v in observed]
    if [[len(row) for row in t] for t in weights] != shape:
        raise ValueError("weights need a cardinality x k table per observed variable")
    tables = {v.id: [_residues(b) for b in t] for v, t in zip(variables, point)}
    weights = {v.id: [_residues(r) for r in t] for v, t in zip(observed, weights)}
    partial, up, slots = _inside(order, children, tables, weights, k)
    grad = _gradient(order, children, tables, weights, partial, up, slots)
    columns = [column for v in variables for column in grad[v.id]]
    return tuple(zip(*columns)) if columns else ((),) * k


# The latent-class ranks' own names for both, which a tracer times apart.
sample_lc_point, lc_jacobian_at = draw_point, jacobian


def certified_rank(c: int, cards: Sequence[int]) -> int | None:
    """Dimension of ``c`` latent classes over neighbors of ``cards`` states
    where a theorem fixes it, else None; one-state neighbors are skipped.
    Two neighbors of r1 and r2 states: a joint of rank m = min(c, r1, r2),
    and rank-m matrices have dimension m(r1 + r2 - m), less one for the
    unit sum.  Three or more, in three groups: Kruskal ranks min(c, product)
    summing to 2c + 2 or more identify the classes, so all parameters
    count.  Any split is sound; two are tried, groups filled in descending
    order until each product reaches c, and the three largest each starting
    a group that every other joins where the product is least.  L binary
    neighbors: min(c(L + 1), 2**L) - 1, but for c = 3, L = 4."""
    big = sorted((r for r in cards if r >= 2), reverse=True)
    if len(big) == 2:
        m = min(c, *big)
        return m * (sum(big) - m) - 1
    rest, kruskal = iter(big), 0
    for _ in range(3):  # a product stays below c * r: no full product is taken
        product = 1
        while product < c and (r := next(rest, None)):
            product *= r
        kruskal += min(c, product)
    groups = [min(c, r) for r in big[:3]]  # balanced: each next joins the least
    for r in big[3:]:
        i = groups.index(min(groups))
        groups[i] = min(c, groups[i] * r)
    if max(kruskal, sum(groups)) >= 2 * c + 2:
        return c * (1 + sum(big) - len(big)) - 1
    if set(big) <= {2} and (c, len(big)) != (3, 4):
        return min(c * (len(big) + 1), 2 ** len(big)) - 1
    return None


def lc_rank_trials(
    component: "LcComponent", trials: int = DEFAULT_TRIALS, seed: int = 0
) -> tuple[int, ...]:
    """Jacobian rank at one random point of a prime field per trial.

    No rank exceeds b = min(columns n, joint states - 1), so each trial
    ranks the gradients of b random functionals, which keep the rank of
    the whole Jacobian but with probability at most deg * mu (see the
    module docstring).  A one-state latent makes its neighbors
    independent, each with a free marginal, so that rank is b = n; a
    Jacobian with no rows, b = 0, has rank 0; from b * n = 2**6 cells on,
    :func:`certified_rank` may settle a rank.  These are returned for every
    trial without a draw, at any size.  Any other component of b * n cells
    over ``CELL_LIMIT`` raises :class:`CellLimitError` before any draw.  A
    specific point can only under-estimate the almost-everywhere rank, so
    callers take the maximum; disagreeing trials are logged.

    Each trial ranks in GF(PRIME) from the seed ``(seed, "lc-trial", trial)``.
    From b * n = 2**6 cells on, a first trial that reaches b proves b,
    returned for every trial; after a shortfall every trial runs.
    """
    check_trials(trials)
    c, cards = component.latent_cardinality, [card for _, card in component.neighbors]
    n = c * (1 + sum(cards) - len(cards)) - 1  # c - 1 class weights, c(r - 1) each
    bound = min(n, capped_product(cards, n + 1) - 1)
    if c == 1 or bound == 0:
        return (bound,) * trials
    large = bound * n >= _PROOF_CELLS
    found = certified_rank(c, cards) if large else None
    if found is not None:
        return (found,) * trials
    what = f"rank of latent cardinality {_figure(c)}"
    distinct = ", ".join(map(_figure, sorted(set(cards))))
    what += f" over {len(cards)} neighbors of cardinalities {{{distinct}}}"
    check_cells(what, bound, n)
    ranks, star = [], component.star
    for trial in range(trials):
        rng = random.Random(derive_seed(seed, "lc-trial", trial))
        point = sample_lc_point(star, rng)
        weights = _functionals(rng, cards, bound)
        ranks.append(exact_rank(lc_jacobian_at(star, point, weights)))
        if large and ranks == [bound]:  # proven: no trial can exceed b
            return (bound,) * trials
    if len(set(ranks)) > 1:
        log.warning(
            "rank trials disagreed for latent id %s: %s (keeping the max)",
            component.latent_id,
            tuple(ranks),
        )
    return tuple(ranks)
