"""Exact rank engine and latent-class Jacobians."""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from support import full_lc_jacobian, reference_rank, residues

from treedim import rank
from treedim.decompose import LcComponent
from treedim.oracle import PARAMETER_LIMIT
from treedim.rank import (
    PRIME,
    LcParameterPoint,
    RowLimitError,
    exact_rank,
    field_draws,
    lc_jacobian_at,
    lc_rank_trials,
    sample_lc_point,
)


def random_product_matrix(rng, m, r, n, bound=10**6):
    left = [[rng.randint(1, bound) for _ in range(r)] for _ in range(m)]
    right = [[rng.randint(1, bound) for _ in range(n)] for _ in range(r)]
    return [
        [sum(left[i][k] * right[k][j] for k in range(r)) for j in range(n)]
        for i in range(m)
    ]


def _mixture_prob(component, point, state):
    """Joint probability mod PRIME of a neighbor-state tuple, straight from
    the mixture formula with the last weight of each block substituted."""
    c = component.latent_cardinality
    pi = list(point.class_weights) + [1 - sum(point.class_weights)]
    total = 0
    for z in range(c):
        term = pi[z]
        for i, (_, card) in enumerate(component.neighbors):
            block = point.conditionals[i][z]
            full = list(block) + [1 - sum(block)]
            term *= full[state[i]]
        total += term
    return total % PRIME


def _bump_free_weight(component, point, flat_index, step):
    """Return a copy of the point with one free weight shifted by step,
    using the Jacobian's column order."""
    c = component.latent_cardinality
    weights = list(point.class_weights)
    conditionals = [
        [list(block) for block in blocks] for blocks in point.conditionals
    ]
    j = flat_index
    if j < c - 1:
        weights[j] += step
    else:
        j -= c - 1
        for i, (_, card) in enumerate(component.neighbors):
            block_size = card - 1
            span = c * block_size
            if j < span:
                z, y = divmod(j, block_size)
                conditionals[i][z][y] += step
                break
            j -= span
        else:
            raise IndexError(flat_index)
    return LcParameterPoint(
        tuple(weights),
        tuple(tuple(tuple(block) for block in blocks) for blocks in conditionals),
    )


class TestExactRank:
    def test_identity(self):
        eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        assert exact_rank(eye) == 3

    def test_proportional_rows(self):
        assert exact_rank([[1, 2], [2, 4]]) == 1

    def test_zero_matrix(self):
        assert exact_rank([[0] * 7 for _ in range(4)]) == 0

    def test_fractional_entries(self):
        rows = [
            [Fraction(1, 2), Fraction(1, 3)],
            [Fraction(1, 4), Fraction(1, 6)],
            [Fraction(3, 2), Fraction(5, 7)],
        ]
        assert exact_rank([residues(row) for row in rows]) == 2

    def test_product_matrices_have_inner_rank(self):
        rng = random.Random(31415)
        for _ in range(25):
            m = rng.randint(1, 10)
            n = rng.randint(1, 10)
            r = rng.randint(1, min(m, n))
            mat = random_product_matrix(rng, m, r, n)
            assert exact_rank(mat) == r
            assert exact_rank(list(zip(*mat))) == r

    def test_scaling_invariance(self):
        rng = random.Random(99)
        mat = random_product_matrix(rng, 6, 3, 5, bound=50)
        rows = [list(row) for row in mat]
        rows[2] = [x * Fraction(-7, 3) for x in rows[2]]
        for row in rows:
            row[4] *= Fraction(5, 11)
        assert exact_rank([residues(row) for row in rows]) == exact_rank(mat)

    def test_near_dependency_is_not_rounded_away(self):
        # Rows differ only in the 40th decimal; floating point would
        # collapse them, exact arithmetic must not.
        eps = Fraction(1, 10**40)
        assert exact_rank([residues([1, 1]), residues([1, 1 + eps])]) == 2

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            exact_rank([[1], []])

    def test_denominator_divisible_by_the_prime_rejected(self):
        # Such an entry has no image in the field the rank is taken in.
        for den in (PRIME, 3 * PRIME):
            with pytest.raises(ValueError, match="divisible by the field prime"):
                residues([Fraction(1, den), 1])


def _with_zero_columns(rng, mat, count):
    n = len(mat[0])
    cols = set(rng.sample(range(n + count), count))
    out = []
    for row in mat:
        it = iter(row)
        out.append([0 if j in cols else next(it) for j in range(n + count)])
    return out


class TestPackedEliminationMatchesReference:
    """``exact_rank`` packs each row into one int; the list-based
    ``reference_rank`` must agree with it on every matrix."""

    @staticmethod
    def _check(mat):
        rank_of_mat = exact_rank(mat)
        assert rank_of_mat == reference_rank(mat)
        transposed = [list(col) for col in zip(*mat)]
        assert exact_rank(transposed) == reference_rank(transposed)
        return rank_of_mat

    def test_low_rank_products(self):
        rng = random.Random(8)
        for bound in (10, 10**6, PRIME - 1):
            for _ in range(30):
                m, n = rng.randint(1, 24), rng.randint(1, 24)
                r = rng.randint(1, min(m, n))
                assert self._check(random_product_matrix(rng, m, r, n, bound)) <= r

    def test_entries_negative_above_the_prime_or_multiples_of_it(self):
        rng = random.Random(9)
        pool = [0, 1, -1, PRIME, -PRIME, 2 * PRIME, PRIME - 1, PRIME + 1,
                1 - PRIME, 3 * PRIME + 5, 2**64, -(2**70), 7, -7]
        for _ in range(60):
            m, n = rng.randint(1, 9), rng.randint(1, 9)
            self._check([[rng.choice(pool) for _ in range(n)] for _ in range(m)])
        # Shifting every entry by a multiple of the prime changes no rank.
        for _ in range(20):
            mat = random_product_matrix(rng, 8, rng.randint(1, 8), 8)
            shifted = [[x + rng.randint(-5, 5) * PRIME for x in row] for row in mat]
            assert exact_rank(shifted) == exact_rank(mat) == reference_rank(mat)
        assert exact_rank([[PRIME, -3 * PRIME], [2 * PRIME, 0]]) == 0

    def test_zero_columns(self):
        rng = random.Random(10)
        for _ in range(30):
            m, n = rng.randint(1, 10), rng.randint(1, 10)
            mat = random_product_matrix(rng, m, rng.randint(1, min(m, n)), n)
            self._check(_with_zero_columns(rng, mat, rng.randint(1, 6)))
        assert exact_rank([[0, 5, 0], [0, 3, 0], [0, 0, 0]]) == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 15, 16, 17, 256])
    def test_column_counts_around_the_slot_width_steps(self, n):
        # The slot width goes from 128 to 136 bits between n = 15 and 16.
        rng = random.Random(n)
        for m in (1, 2, 3, 5):
            self._check([[rng.randrange(-PRIME, 2 * PRIME) for _ in range(n)]
                         for _ in range(m)])
            r = rng.randint(1, min(m, n))
            self._check(random_product_matrix(rng, m, r, n, PRIME - 1))
            # Dense entries near p - 1: every row meets every earlier pivot.
            self._check([[PRIME - 1 - (i == j) for j in range(n)] for i in range(m)])

    def test_full_rank_at_the_oracle_parameter_limit(self):
        # Entries p - 1 off the diagonal and p - 3 on it make -(J + 2I) mod p,
        # with determinant +-2**(n-1) * (n + 2) != 0.  Row i is updated by
        # all i earlier pivots, up to n - 1 updates, the most any row meets.
        n = PARAMETER_LIMIT
        mat = [[PRIME - 1 - 2 * (i == j) for j in range(n)] for i in range(n)]
        assert exact_rank(mat) == n
        # n I - J mod p has the all-ones vector in its kernel: rank n - 1.
        mat = [[PRIME - 1 + (n + PRIME) * (i == j) for j in range(n)] for i in range(n)]
        assert exact_rank(mat) == n - 1


class TestFieldDraws:
    def test_same_seed_same_residues_all_in_the_field(self):
        for count in (0, 1, 7, 1000):
            draws = field_draws(random.Random(count), count)
            assert draws == field_draws(random.Random(count), count)
            assert len(draws) == count
            assert all(type(x) is int and 0 <= x < PRIME for x in draws)
        assert len(set(field_draws(random.Random(1), 1000))) == 1000


class TestLcJacobian:
    def test_degenerate_single_class_single_leaf(self):
        component = LcComponent(0, 1, ((1, 2),), (False,))
        point = LcParameterPoint((), (((5,),),))
        assert full_lc_jacobian(component, point) == ((1,),)

    def test_shape(self):
        component = LcComponent(0, 2, ((1, 2), (2, 2)), (False, False))
        point = sample_lc_point(component, random.Random(0))
        jac = full_lc_jacobian(component, point)
        assert (len(jac), len(jac[0])) == (3, 5)
        assert all(type(x) is int and 0 <= x < PRIME for row in jac for x in row)

    def test_matches_exact_finite_differences(self):
        # The joint probability is affine in every single free weight, so
        # a finite difference with step 1 is the exact partial derivative
        # mod PRIME; this recomputes the whole Jacobian without the closed
        # forms, and compares it with the field Jacobian.
        for card, leaves in [(2, (2, 2)), (3, (2, 3)), (1, (3,))]:
            neighbors = tuple((i + 1, c) for i, c in enumerate(leaves))
            component = LcComponent(0, card, neighbors, (False,) * len(leaves))
            point = sample_lc_point(component, random.Random(card * 10))
            jac = full_lc_jacobian(component, point)
            states = [
                s
                for s in itertools.product(*(range(c) for c in leaves))
                if s != tuple(c - 1 for c in leaves)
            ]
            base = [_mixture_prob(component, point, s) for s in states]
            for j in range(len(jac[0])):
                bumped_point = _bump_free_weight(component, point, j, 1)
                bumped = [_mixture_prob(component, bumped_point, s) for s in states]
                column = [row[j] for row in jac]
                assert column == [(b - a) % PRIME for a, b in zip(base, bumped)]

    def test_columns_sum_to_zero_over_all_states(self):
        # Probabilities sum to one identically, so every column summed
        # over all joint states (the omitted one included) vanishes.
        component = LcComponent(0, 3, ((1, 2), (2, 3)), (False, False))
        point = sample_lc_point(component, random.Random(5))
        jac = full_lc_jacobian(component, point)
        all_states = list(itertools.product(range(2), range(3)))
        for j in range(len(jac[0])):
            bumped_point = _bump_free_weight(component, point, j, 1)
            omitted = _mixture_prob(
                component, bumped_point, all_states[-1]
            ) - _mixture_prob(component, point, all_states[-1])
            assert (sum(row[j] for row in jac) + omitted) % PRIME == 0

    def test_zero_weight_point_accepted_and_ranks_no_higher(self):
        # A field point need not be interior: one with a zero weight is
        # ranked like any other, and can only err low.
        component = LcComponent(0, 2, ((1, 2), (2, 2), (3, 2)), (False,) * 3)
        best = max(lc_rank_trials(component))
        assert best == 7
        point = sample_lc_point(component, random.Random(12))
        zero_free = LcParameterPoint(
            point.class_weights, (((0,), (1,)),) + point.conditionals[1:]
        )
        # Class weights (1,) leave the last class weight 0: one class is dead.
        zero_last = LcParameterPoint((1,), point.conditionals)
        ranks = [
            exact_rank(full_lc_jacobian(component, p)) for p in (zero_free, zero_last)
        ]
        assert all(r <= best for r in ranks)
        assert ranks[1] < best

    def test_shape_mismatch_rejected(self):
        component = LcComponent(0, 2, ((1, 2),), (False,))
        wrong = LcParameterPoint((), (((3,), (5,)),))
        with pytest.raises(ValueError, match="does not match"):
            lc_jacobian_at(component, wrong, [(0,)])


class TestLcEffectiveDimension:
    def test_single_class_is_sum_of_leaf_dimensions(self):
        for cards in [(2,), (3, 4), (2, 2, 5)]:
            neighbors = tuple((i + 1, c) for i, c in enumerate(cards))
            component = LcComponent(0, 1, neighbors, (False,) * len(cards))
            assert max(lc_rank_trials(component, trials=2)) == sum(
                c - 1 for c in cards
            )

    @pytest.mark.parametrize(
        "card,leaves,expected",
        [
            (2, (3, 3), 7),
            (2, (2, 2, 2), 7),
            (3, (2, 3, 3, 3), 23),
            (3, (3, 3, 3, 3), 26),
            # rank-deficient: below the parameter count (41, 19)
            (6, (3, 3, 3), 26),
            (4, (2, 2, 2, 2), 15),
            # defective (Strassen): below both the 27 parameters and the 26 rows
            (4, (3, 3, 3), 25),
        ],
    )
    def test_reference_components(self, card, leaves, expected):
        neighbors = tuple((i + 1, c) for i, c in enumerate(leaves))
        component = LcComponent(0, card, neighbors, (False,) * len(leaves))
        assert max(lc_rank_trials(component, trials=3)) == expected

    def test_bounded_by_parameters_and_joint_size(self):
        rng = random.Random(777)
        for _ in range(15):
            card = rng.randint(1, 4)
            leaves = tuple(rng.randint(2, 4) for _ in range(rng.randint(1, 3)))
            neighbors = tuple((i + 1, c) for i, c in enumerate(leaves))
            component = LcComponent(0, card, neighbors, (False,) * len(leaves))
            dim = max(lc_rank_trials(component, trials=2, seed=rng.randint(0, 99)))
            joint = 1
            for c in leaves:
                joint *= c
            assert dim <= min(component.standard_dimension(), joint - 1)

    def test_latent_cardinality_monotone(self):
        for leaves in [(2, 2), (3, 3), (2, 3, 2)]:
            neighbors = tuple((i + 1, c) for i, c in enumerate(leaves))
            dims = [
                max(
                    lc_rank_trials(
                        LcComponent(0, card, neighbors, (False,) * len(leaves)),
                        trials=2,
                    )
                )
                for card in range(1, 5)
            ]
            assert dims == sorted(dims)

    def test_trials_are_stable(self):
        component = LcComponent(0, 3, ((1, 2), (2, 3), (3, 3)), (False, False, False))
        ranks = lc_rank_trials(component, trials=3, seed=11)
        assert len(set(ranks)) == 1

    def test_trials_must_be_positive(self):
        component = LcComponent(0, 2, ((1, 2),), (False,))
        with pytest.raises(ValueError):
            lc_rank_trials(component, trials=0)

    def test_deterministic_for_seed(self):
        component = LcComponent(0, 2, ((1, 3), (2, 3)), (False, False))
        a = lc_rank_trials(component, trials=3, seed=42)
        b = lc_rank_trials(component, trials=3, seed=42)
        assert a == b


class TestSpreadRowOrder:
    @staticmethod
    def _components():
        fixed = [(6, (3, 3, 3)), (2, (3, 3)), (3, (2, 3, 3, 3))]
        rng = random.Random(606)
        drawn = []
        for _ in range(8):
            leaves = tuple(rng.randint(2, 4) for _ in range(rng.randint(1, 4)))
            drawn.append((rng.randint(1, 4), leaves))
        for card, leaves in fixed + drawn:
            neighbors = tuple((i + 1, c) for i, c in enumerate(leaves))
            yield LcComponent(0, card, neighbors, (False,) * len(leaves))

    def test_rows_are_a_sub_multiset_with_the_full_rank(self, monkeypatch):
        points, handed = [], []

        def sample(component, rng):
            points.append(sample_lc_point(component, rng))
            return points[-1]

        def rank_of(rows):
            handed.append((len(points) - 1, list(rows)))
            return exact_rank(rows)

        monkeypatch.setattr(rank, "sample_lc_point", sample)
        monkeypatch.setattr(rank, "exact_rank", rank_of)
        ranks = {}
        for component in self._components():
            points.clear()
            handed.clear()
            trials = lc_rank_trials(component, trials=2, seed=3)
            assert len(points) == 2
            full = [full_lc_jacobian(component, point) for point in points]
            assert {trial for trial, _ in handed} == {0, 1}
            for trial, rows in handed:
                assert not Counter(rows) - Counter(full[trial])
            for jacobian, found in zip(full, trials):
                assert found == exact_rank(jacobian)
            leaves = tuple(c for _, c in component.neighbors)
            ranks[component.latent_cardinality, leaves] = max(trials)
        # Below the parameter count (41 and 9) in the first two, full in the last.
        assert ranks[(6, (3, 3, 3))] == 26
        assert ranks[(2, (3, 3))] == 7
        assert ranks[(3, (2, 3, 3, 3))] == 23


def _binary_component(card, leaves):
    neighbors = tuple((i + 1, 2) for i in range(leaves))
    return LcComponent(0, card, neighbors, (False,) * leaves)


class TestPrefixEarlyStop:
    @pytest.mark.parametrize(
        "card,leaves,expected,builds",
        [
            # The rank reaches b, the column count, far below the 2**leaves - 1 rows.
            (4, 20, 83, 1),
            # The first b strided rows fall short, so the prefix doubles once.
            (3, 20, 62, 2),
            (2, 20, 41, 2),
            (3, 16, 50, 2),
        ],
    )
    def test_wide_binary_components(self, monkeypatch, card, leaves, expected, builds):
        built = []

        def build(component, point, states):
            built.append(len(states))
            return lc_jacobian_at(component, point, states)

        monkeypatch.setattr(rank, "lc_jacobian_at", build)
        component = _binary_component(card, leaves)
        assert lc_rank_trials(component, trials=2) == (expected, expected)
        # b rows first, then b new rows per doubling; never all 2**leaves - 1.
        assert built == [expected] * (2 * builds)

    def test_prefix_over_the_row_limit_raises(self, monkeypatch):
        component = LcComponent(0, 4, ((1, 3), (2, 3), (3, 3)), (False,) * 3)
        monkeypatch.setattr(rank, "ROW_LIMIT", 20)
        with pytest.raises(RowLimitError, match=r"\(3, 3, 3\) needs 26 rows > 20"):
            lc_rank_trials(component)
        # Growth is checked too: 41 rows fit, the doubled prefix of 82 does not.
        monkeypatch.setattr(rank, "ROW_LIMIT", 81)
        with pytest.raises(RowLimitError, match="needs 82 rows"):
            lc_rank_trials(_binary_component(2, 20), trials=1)
        monkeypatch.setattr(rank, "ROW_LIMIT", 82)
        assert lc_rank_trials(_binary_component(2, 20), trials=1) == (41,)

    def test_first_prefix_over_the_cell_limit_raises_before_any_draw(
        self, monkeypatch
    ):
        def no_draw(component, rng):
            raise AssertionError("a parameter point was drawn")

        real_draw = rank.sample_lc_point
        monkeypatch.setattr(rank, "sample_lc_point", no_draw)
        # c = 2 over 20 binary leaves: b = n = 41, a first prefix of 1,681 cells.
        monkeypatch.setattr(rank, "CELL_LIMIT", 41 * 41 - 1)
        with pytest.raises(RowLimitError, match=r"needs 41 x 41 cells > 1680$"):
            lc_rank_trials(_binary_component(2, 20), trials=1)
        monkeypatch.setattr(rank, "sample_lc_point", real_draw)
        monkeypatch.setattr(rank, "CELL_LIMIT", 41 * 41)
        assert lc_rank_trials(_binary_component(2, 20), trials=1) == (41,)
        # Only the first prefix is checked: c = 3 doubles to 124 x 62 cells.
        monkeypatch.setattr(rank, "CELL_LIMIT", 62 * 62)
        assert lc_rank_trials(_binary_component(3, 20), trials=1) == (62,)

    def test_eighty_binary_leaves_reach_the_bound_from_the_first_prefix(
        self, monkeypatch
    ):
        # m = 2**80 - 1.  round(m * 0.6180339887) in floats kept 53 bits and
        # ended in 27 zero bits, so the last leaves hardly varied over the
        # prefix, which doubled up to ROW_LIMIT without reaching rank b.
        built = []

        def build(component, point, states):
            built.append(len(states))
            return lc_jacobian_at(component, point, states)

        monkeypatch.setattr(rank, "lc_jacobian_at", build)
        assert lc_rank_trials(_binary_component(2, 80), trials=2) == (161, 161)
        assert built == [161, 161]
