"""Prime-field rank engine and latent-class Jacobian ranks.

Ranks are exact, taken in GF(p), p = 2**61 - 1, of matrices given as
rows of integers.  Elimination packs each row into one int, one
fixed-width slot per column, wide enough that no carry crosses a slot,
so a pivot is applied to a whole row by one big-int multiply-add;
pivots are kept un-normalised, their slots only folded below 2p.  The
closed-form Jacobian of a latent-class component is built directly mod p
at a random point of GF(p): every free weight is a residue drawn by
:func:`field_draws`, and each block's last weight is one minus the rest
mod p.

The error is one-sided.  Jacobian entries are integer polynomials in
the free weights, so a minor that is non-zero mod p at any field point
is a non-zero polynomial over the rationals: the rank mod p there is at
most the generic rank over the rationals, which the open simplex, being
Zariski-dense, attains almost everywhere.  So a point need be neither
rational nor interior, and an unlucky one can only err low; the maximum
over independent trials is reported.  Each drawn residue has point mass
at most mu = 9/2**64, so by Schwartz-Zippel a minor of degree d that is
non-zero mod p vanishes at a drawn point with probability at most d*mu.
"""

from __future__ import annotations

import hashlib
import itertools
import logging
import math
import random
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .decompose import LcComponent

DEFAULT_TRIALS = 3
# Ranks are taken in GF(PRIME), a Mersenne prime.
PRIME = 2**61 - 1
# No latent-class rank builds more Jacobian rows than this.
ROW_LIMIT = 2**16

log = logging.getLogger(__name__)


class RowLimitError(ValueError):
    """A latent-class rank needs more Jacobian rows than ``ROW_LIMIT``."""


def derive_seed(*parts) -> int:
    """Derive an independent integer seed from a tuple of labels.

    Hash-based so that per-component and per-trial random streams are
    reproducible and unrelated to each other.
    """
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def field_draws(rng: random.Random, count: int) -> list[int]:
    """``count`` random field elements in [0, PRIME), from one bulk draw.

    Each is a uniform 64-bit word reduced mod PRIME.  As 2**64 = 8p + 8,
    the values 0..7 have nine preimages and the rest eight, so no value
    has point mass above 9/2**64: close enough to uniform for the
    Schwartz-Zippel bound d * 9/2**64 on a degree-d minor.
    """
    words = struct.unpack(f"<{count}Q", rng.randbytes(8 * count))
    return [w % PRIME for w in words]


class _Slots:
    """Values in [0, 2**64) packed into one int, a W-bit slot each, slot 0 lowest.

    W is ``bits`` rounded up to whole bytes; a caller picks ``bits`` so that
    no slot of a sum it forms reaches ``2**bits``: no carry crosses a slot,
    and one big-int multiply-add acts on every slot.  Two rounds of the
    Mersenne fold ``(v & low) + ((v >> 61) & high)`` take every slot below
    ``2**61 + 2**(W-61)``, then below ``2**61 + 2**(W-122) < 2p`` (W <= 182).
    """

    def __init__(self, count: int, bits: int):
        self.width = 8 * -(-bits // 8)
        self.layout = struct.Struct("<" + f"Q{self.width // 8 - 8}x" * count)
        ones = self.ones = self.pack([1] * count)
        self.low, self.high = ones * PRIME, ones * ((1 << (self.width - 61)) - 1)

    def pack(self, values: Sequence[int]) -> int:
        return int.from_bytes(self.layout.pack(*values), "little")

    def unpack(self, vec: int) -> tuple[int, ...]:
        return self.layout.unpack(vec.to_bytes(self.layout.size, "little"))

    def fold(self, vec: int) -> int:
        vec = (vec & self.low) + ((vec >> 61) & self.high)
        return (vec & self.low) + ((vec >> 61) & self.high)


def exact_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over GF(PRIME) of a matrix given as rows of integers.

    Entries must be integers.  Each row, reduced mod PRIME, is packed into
    one int with a :class:`_Slots` slot per column, column 0 lowest, and
    reduced left to right: the low slot is read mod PRIME, a pivot leading
    there is applied to every slot at once by one multiply-add
    ``vec += g * neg``, and the finished slot is shifted out.  A row whose
    low slot survives becomes a pivot, stored un-normalised as the inverse
    of its lead and ``neg = 2p - row`` per slot, its slots folded below 2p
    so that ``neg`` slots lie in ``(0, 2**62)``.  Stops early once the
    rank reaches min(m, n).

    No carry crosses a slot: a row starts below 2**61 per slot and sees
    at most n updates, each adding ``g * neg < 2**61 * 2**62``, so slots
    stay below ``2**(124 + n.bit_length())``.  Exact integer arithmetic
    congruent mod PRIME gives the rank over GF(PRIME).
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
        vec = slots.pack([x % PRIME for x in row])
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


@dataclass(frozen=True)
class LcParameterPoint:
    """Parameter point of a latent-class component, in GF(PRIME).

    ``class_weights`` holds the free weights of the latent classes (one
    fewer than the latent cardinality); ``conditionals[i][z]`` holds the
    free weights of neighbor ``i``'s distribution given class ``z``.
    Weights are integers taken mod PRIME; the last weight of every block
    is one minus the rest, mod PRIME, and may be any residue, zero too.
    """

    class_weights: tuple[int, ...]
    conditionals: tuple[tuple[tuple[int, ...], ...], ...]


def sample_lc_point(component: "LcComponent", rng: random.Random) -> LcParameterPoint:
    c = component.latent_cardinality
    cards = [card for _, card in component.neighbors]
    draws = iter(field_draws(rng, c - 1 + c * sum(card - 1 for card in cards)))
    weights = tuple(itertools.islice(draws, c - 1))
    conditionals = tuple(
        tuple(tuple(itertools.islice(draws, card - 1)) for _ in range(c))
        for card in cards
    )
    return LcParameterPoint(weights, conditionals)


def _full_block(free: Sequence[int]) -> list[int]:
    """Free weights mod PRIME, completed by ``(1 - sum(free)) mod PRIME``."""
    free = [x % PRIME for x in free]
    return [*free, (1 - sum(free)) % PRIME]


def _field_blocks(component: "LcComponent", point: LcParameterPoint):
    """Check the point against the component and complete each block once.

    Returns the completed class weights and the completed conditionals,
    ``phi[i][z][y]``.
    """
    c = component.latent_cardinality
    if len(point.class_weights) != c - 1:
        raise ValueError(
            f"class weight count {len(point.class_weights)} does not match "
            f"latent cardinality {c}"
        )
    if len(point.conditionals) != len(component.neighbors):
        raise ValueError("conditional block count does not match neighbor count")
    phi = []
    for i, (var_id, card) in enumerate(component.neighbors):
        blocks = point.conditionals[i]
        if len(blocks) != c:
            raise ValueError(f"neighbor {var_id}: expected {c} conditional blocks")
        full = []
        for z, block in enumerate(blocks):
            if len(block) != card - 1:
                raise ValueError(
                    f"neighbor {var_id}, class {z}: expected {card - 1} free weights"
                )
            full.append(_full_block(block))
        phi.append(full)
    return _full_block(point.class_weights), phi


def lc_jacobian_at(
    component: "LcComponent",
    point: LcParameterPoint,
    states: Sequence[Sequence[int]],
) -> tuple[tuple[int, ...], ...]:
    """Jacobian rows of the observed joint of a latent-class component, mod PRIME.

    The joint probability of a neighbor-state tuple ``y`` is
    ``sum_z pi_z * prod_i phi[i][z][y_i]`` with the last weight of every
    block substituted by one minus the rest.  There is one row per tuple
    in ``states``, in that order; columns are the free class weights
    followed by the free conditional weights grouped by neighbor, then
    class, then state.  Entries lie in [0, PRIME).
    """
    pi, phi = _field_blocks(component, point)
    c = component.latent_cardinality
    cards = [card for _, card in component.neighbors]
    # offsets[i] is the first column of neighbor i; the last one is n.
    offsets = list(itertools.accumulate((c * (k - 1) for k in cards), initial=c - 1))
    n = offsets[-1]

    rows = []
    for state in states:
        row = [0] * n
        free = []  # free[z] = prod_i phi[i][z][y_i]
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


def _spread_rank(component: "LcComponent", rng: random.Random) -> int:
    """Jacobian rank at a point drawn from ``rng``, from a growing prefix of rows.

    A golden-ratio stride coprime to the row count m spreads the rows, as
    adjacent lexicographic ones are often dependent.  No rank exceeds
    b = min(columns, m), so a prefix of rank b has the rank of all m rows.
    The prefix starts at b rows and doubles (building only the new rows)
    while its rank is below b and it is shorter than m.  A prefix over
    ``ROW_LIMIT`` rows raises :class:`RowLimitError`, the first before any draw.
    """
    cards = [card for _, card in component.neighbors]
    m = math.prod(cards) - 1
    bound = min(component.standard_dimension(), m)
    rows, point, size = [], None, bound
    while size <= ROW_LIMIT:
        if point is None:  # the first prefix fits
            point = sample_lc_point(component, rng)
            step = max(1, round(m * 0.6180339887))
            while math.gcd(step, m) != 1:
                step += 1
            # Digit i of a lexicographic state index j is j // radix[i] % cards[i].
            radix = [math.prod(cards[i + 1 :]) for i in range(len(cards))]
        states = [
            [k * step % m // r % card for r, card in zip(radix, cards)]
            for k in range(len(rows), size)
        ]
        rows.extend(lc_jacobian_at(component, point, states))
        rank = exact_rank(rows)
        if rank == bound or size == m:
            return rank
        size = min(2 * size, m)
    raise RowLimitError(
        f"rank of latent cardinality {component.latent_cardinality} over "
        f"neighbor cardinalities {tuple(cards)} needs {size} rows > {ROW_LIMIT}"
    )


def lc_rank_trials(
    component: "LcComponent", trials: int = DEFAULT_TRIALS, seed: int = 0
) -> tuple[int, ...]:
    """Jacobian rank at one random point of GF(PRIME) per trial.

    A specific point can only under-estimate the almost-everywhere rank,
    so callers take the maximum; disagreeing trials are logged.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    ranks = []
    for trial in range(trials):
        rng = random.Random(derive_seed(seed, "lc-trial", trial))
        ranks.append(_spread_rank(component, rng))
    if len(set(ranks)) > 1:
        log.warning(
            "rank trials disagreed for latent id %s: %s (keeping the max)",
            component.latent_id,
            tuple(ranks),
        )
    return tuple(ranks)
