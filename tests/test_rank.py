"""Exact rank engine and latent-class Jacobians."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from support import (
    all_states,
    bumped_points,
    flattening_bound,
    full_lc_jacobian,
    indicator_weights,
    latent_class_model,
    reference_lc_jacobian_at,
    reference_lc_rank,
    reference_packed_jacobian,
    reference_packed_rank,
    reference_rank,
    reference_trial_ranks,
    residues,
)

from treedim import oracle, rank
from treedim.decompose import LcComponent
from treedim.model import standard_dimension
from treedim.oracle import observed_joint_jacobian, sample_full_point
from treedim.rank import (
    CELL_LIMIT,
    MAX_TRIALS,
    PRIME,
    SMALL_PRIME,
    CellLimitError,
    certified_rank,
    derive_seed,
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


def _mixture_prob(point, state):
    """Joint probability mod PRIME of a neighbor-state tuple, straight from
    the mixture formula over the completed tables."""
    (pi,), *phi = point
    total = 0
    for z, weight in enumerate(pi):
        for i, y in enumerate(state):
            weight *= phi[i][z][y]
        total += weight
    return total % PRIME


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
        assert rank_of_mat == reference_rank(mat) == reference_packed_rank(mat)
        transposed = [list(col) for col in zip(*mat)]
        assert exact_rank(transposed) == reference_packed_rank(transposed)
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

    def test_full_rank_of_256_columns(self):
        # Entries p - 1 off the diagonal and p - 3 on it make -(J + 2I) mod p,
        # with determinant +-2**(n-1) * (n + 2) != 0.  Row i is updated by
        # all i earlier pivots, up to n - 1 updates, the most any row meets.
        n = 256
        mat = [[PRIME - 1 - 2 * (i == j) for j in range(n)] for i in range(n)]
        assert exact_rank(mat) == n
        # n I - J mod p has the all-ones vector in its kernel: rank n - 1.
        mat = [[PRIME - 1 + (n + PRIME) * (i == j) for j in range(n)] for i in range(n)]
        assert exact_rank(mat) == n - 1


class TestNarrowSide:
    """A matrix with more columns than rows is ranked as its transpose,
    with one slot per row."""

    @staticmethod
    def _slot_counts(monkeypatch, mat):
        counts = []
        layout = rank._layout

        def recorded(count, bits, p):
            counts.append(count)
            return layout(count, bits, p)

        monkeypatch.setattr(rank, "_layout", recorded)
        found = exact_rank(mat)
        monkeypatch.undo()
        assert found == reference_rank(mat) == reference_packed_rank(mat)
        return counts

    def test_wide_tall_and_square_matrices(self, monkeypatch):
        rng = random.Random(29)
        pool = [0, 1, -1, PRIME, -PRIME, PRIME - 1, PRIME + 1, 2**64, -(2**70)]
        for _ in range(120):
            m, n = rng.randint(1, 30), rng.randint(1, 30)
            r = rng.randint(1, min(m, n))  # rank-deficient unless r = min(m, n)
            mat = random_product_matrix(rng, m, r, n, rng.choice((10, PRIME - 1)))
            assert self._slot_counts(monkeypatch, mat) == [min(m, n)]
            odd = [[rng.choice(pool) for _ in range(n)] for _ in range(m)]
            assert self._slot_counts(monkeypatch, odd) == [min(m, n)]

    def test_one_row_one_column_and_all_zero(self, monkeypatch):
        for n in (1, 2, 17, 300):
            row = [[PRIME - 1 - j for j in range(n)]]
            assert self._slot_counts(monkeypatch, row) == [1]
            assert self._slot_counts(monkeypatch, [list(c) for c in zip(*row)]) == [1]
            for m in (1, 3, 40):
                assert exact_rank([[0] * n for _ in range(m)]) == 0
                assert exact_rank([[PRIME] * n for _ in range(m)]) == 0
        assert exact_rank([]) == exact_rank([[]]) == exact_rank([[], []]) == 0

    def test_ragged_rows_are_refused_before_any_transpose(self):
        # zip(*rows) would cut both to the shortest row without a word.
        for rows in ([[1, 2, 3, 4], [1, 2]], [[1, 2], [1, 2, 3, 4, 5]], [[1] * 5, []]):
            with pytest.raises(ValueError, match="ragged matrix"):
                exact_rank(rows)


class TestFieldDraws:
    def test_same_seed_same_residues_all_in_the_field(self):
        for count in (0, 1, 7, 1000):
            draws = field_draws(random.Random(count), count)
            assert draws == field_draws(random.Random(count), count)
            assert len(draws) == count
            assert all(type(x) is int and 0 <= x < PRIME for x in draws)
        assert len(set(field_draws(random.Random(1), 1000))) == 1000


class TestFigure:
    def test_a_mantissa_that_rounds_to_ten_carries(self):
        for x, text in [
            (1, "1"),
            (10**12 - 1, "999999999999"),
            (10**12, "1.0e12"),
            (9_940_000_000_000, "9.9e12"),
            (9_960_000_000_000, "1.0e13"),
            (10**13 - 1, "1.0e13"),
            (10**13, "1.0e13"),
            (10**13 + 1, "1.0e13"),
            (10**40, "1.0e40"),
            (2 * 10**40, "2.0e40"),
            (10**41 - 1, "1.0e41"),
            (3 * 10**8000, "3.0e8000"),
            (10**8000 - 1, "1.0e8000"),
        ]:
            assert rank._figure(x) == text, text


def _component(card, leaves):
    neighbors = tuple((i + 1, c) for i, c in enumerate(leaves))
    return LcComponent(0, card, neighbors)


def _random_weights(rng, cards, k):
    return [[[rng.randrange(PRIME) for _ in range(k)] for _ in range(c)] for c in cards]


class TestLcJacobian:
    def test_degenerate_single_class_single_leaf(self):
        point = [[[1]], [[5, 1 - 5]]]
        assert full_lc_jacobian(_component(1, (2,)), point) == ((1,),)

    def test_shape(self):
        component = _component(2, (2, 2))
        point = sample_lc_point(component, random.Random(0))
        weights = _random_weights(random.Random(1), (2, 2), 4)
        rows = lc_jacobian_at(component, point, weights)
        assert (len(rows), len(rows[0])) == (4, 5)
        assert all(type(x) is int and 0 <= x < PRIME for row in rows for x in row)

    def test_matches_exact_finite_differences(self):
        # The joint probability is affine in every block, so moving a free
        # weight up by 1 and its block's last weight down by 1 gives the
        # exact partial derivative mod PRIME; this recomputes the whole
        # Jacobian without the passes.
        for card, leaves in [(2, (2, 2)), (3, (2, 3)), (1, (3,)), (2, (1, 3))]:
            component = _component(card, leaves)
            point = sample_lc_point(component, random.Random(card * 10))
            jac = full_lc_jacobian(component, point)
            states = all_states(leaves)[:-1]
            base = [_mixture_prob(point, s) for s in states]
            columns = [
                [(_mixture_prob(bumped, s) - a) % PRIME for a, s in zip(base, states)]
                for bumped in bumped_points(point)
            ]
            assert [list(col) for col in zip(*jac)] == columns

    def test_columns_sum_to_zero_over_all_states(self):
        # Probabilities sum to one identically, so the gradients of the
        # indicators of all joint states, the last one included, add up to 0.
        component = _component(3, (2, 3))
        point = sample_lc_point(component, random.Random(5))
        rows = lc_jacobian_at(component, point, indicator_weights((2, 3)))
        assert len(rows) == 6
        assert all(sum(col) % PRIME == 0 for col in zip(*rows))

    def test_zero_weight_point_accepted_and_ranks_no_higher(self):
        # A field point need not be interior: one with a zero weight is
        # ranked like any other, and can only err low.
        component = _component(2, (2, 2, 2))
        best = max(lc_rank_trials(component))
        assert best == 7
        point = sample_lc_point(component, random.Random(12))
        zero_free = [point[0], [[0, 1], point[1][1]], *point[2:]]
        # Class weights (1, 0): one class is dead.
        zero_last = [[[1, 0]], *point[1:]]
        ranks = [
            exact_rank(full_lc_jacobian(component, p)) for p in (zero_free, zero_last)
        ]
        assert all(r <= best for r in ranks)
        assert ranks[1] < best

    def test_shape_mismatch_rejected(self):
        component = _component(2, (2,))
        weights = indicator_weights((2,))
        with pytest.raises(ValueError, match="does not match"):
            lc_jacobian_at(component, [[[1, 0]], [[3, 5]]], weights)
        point = sample_lc_point(component, random.Random(0))
        with pytest.raises(ValueError, match="weights need"):
            lc_jacobian_at(component, point, indicator_weights((3,)))


class TestLcJacobianMatchesReference:
    """With indicator weights, the rows of the passes on the star equal the
    closed-form rows of ``reference_lc_jacobian_at`` exactly."""

    @staticmethod
    def _check(component, point, states):
        cards = [c for _, c in component.neighbors]
        weights = indicator_weights(cards, states)
        rows = lc_jacobian_at(component, point, weights)
        assert rows == reference_lc_jacobian_at(component, point, states)
        assert rows == reference_packed_jacobian(component.star, point, weights)
        return rows

    def test_random_components(self):
        rng = random.Random(1729)
        unit_leaves = single_class = 0
        for _ in range(60):
            leaves = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
            component = _component(rng.randint(1, 4), leaves)
            unit_leaves += 1 in leaves
            single_class += component.latent_cardinality == 1
            point = sample_lc_point(component, rng)
            top = [[[PRIME - 1] * len(b) for b in t] for t in point]
            for p in (point, top):
                rows = self._check(component, p, all_states(leaves))
                assert exact_rank(rows) == reference_packed_rank(rows)
        assert unit_leaves and single_class

    @pytest.mark.parametrize("card", [2**13 - 1, 2**13 + 1])
    def test_leaves_around_the_slot_width_step(self, card):
        # The slots of the passes widen from 136 to 144 bits at 2**13 states.
        rng = random.Random(card)
        leaves = (card, 2, 1)
        component = _component(2, leaves)
        point = sample_lc_point(component, rng)
        states = [(card - 1, 1, 0), (card - 1, 0, 0), (0, 1, 0)]
        states += [(rng.randrange(card), rng.randrange(2), 0) for _ in range(20)]
        self._check(component, point, states)


class TestLcRankMatchesReference:
    def test_trial_rank_on_random_components(self):
        # The strided closed-form ranks that the functional ranks replaced,
        # one trial each, at the same parameter point.
        rng = random.Random(2718)
        deficient = 0
        for _ in range(300):
            leaves = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 7)))
            component = _component(rng.randint(1, 6), leaves)
            seed = rng.randrange(100)
            (found,) = lc_rank_trials(component, trials=1, seed=seed)
            trial_rng = random.Random(derive_seed(seed, "lc-trial", 0))
            assert found == reference_lc_rank(component, trial_rng), (component, seed)
            joint = math.prod(leaves) - 1
            deficient += found < min(standard_dimension(component.star), joint)
        assert deficient


class TestLcEffectiveDimension:
    def test_single_class_is_sum_of_leaf_dimensions(self):
        for cards in [(2,), (3, 4), (2, 2, 5)]:
            neighbors = tuple((i + 1, c) for i, c in enumerate(cards))
            component = LcComponent(0, 1, neighbors)
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
        component = LcComponent(0, card, neighbors)
        assert max(lc_rank_trials(component, trials=3)) == expected

    @pytest.mark.parametrize(
        "card,leaves,expected",
        [(4, (2, 3, 5), 27), (5, (2, 4, 6), 44), (3, (2, 2, 4), 14)],
    )
    def test_ranks_proven_by_a_flattening(self, card, leaves, expected):
        # Below the row bound b, and equal to support.flattening_bound.
        component = LcComponent(0, card, tuple(enumerate(leaves)))
        b = min(standard_dimension(component.star), math.prod(leaves) - 1)
        assert flattening_bound(card, leaves) == expected < b
        assert max(lc_rank_trials(component, trials=2)) == expected

    def test_bounded_by_parameters_and_joint_size(self):
        rng = random.Random(777)
        for _ in range(15):
            card = rng.randint(1, 4)
            leaves = tuple(rng.randint(2, 4) for _ in range(rng.randint(1, 3)))
            neighbors = tuple((i + 1, c) for i, c in enumerate(leaves))
            component = LcComponent(0, card, neighbors)
            dim = max(lc_rank_trials(component, trials=2, seed=rng.randint(0, 99)))
            joint = 1
            for c in leaves:
                joint *= c
            assert dim <= min(standard_dimension(component.star), joint - 1)

    def test_latent_cardinality_monotone(self):
        for leaves in [(2, 2), (3, 3), (2, 3, 2)]:
            neighbors = tuple((i + 1, c) for i, c in enumerate(leaves))
            dims = [
                max(
                    lc_rank_trials(
                        LcComponent(0, card, neighbors),
                        trials=2,
                    )
                )
                for card in range(1, 5)
            ]
            assert dims == sorted(dims)

    def test_trials_are_stable(self):
        component = LcComponent(0, 3, ((1, 2), (2, 3), (3, 3)))
        ranks = lc_rank_trials(component, trials=3, seed=11)
        assert len(set(ranks)) == 1

    def test_trials_must_be_positive(self):
        component = LcComponent(0, 2, ((1, 2),))
        with pytest.raises(ValueError):
            lc_rank_trials(component, trials=0)

    def test_deterministic_for_seed(self):
        component = LcComponent(0, 2, ((1, 3), (2, 3)))
        a = lc_rank_trials(component, trials=3, seed=42)
        b = lc_rank_trials(component, trials=3, seed=42)
        assert a == b


class TestOneBuildPerTrial:
    @pytest.mark.parametrize(
        "card,leaves,bound,expected",
        [
            # The strided rows that functionals replaced took two builds per
            # trial on c = 3 and c = 2 over 16 to 40 leaves.
            (3, (2,) * 16, 50, 50),
            (2, (3,) * 40, 161, 161),
            (2, (2,) * 80, 161, 161),
            (4, (2,) * 20, 83, 83),
            (3, (2,) * 20, 62, 62),
            (2, (2,) * 20, 41, 41),
            # Deficient: b = 14 rows, rank 13 (Geiger et al., Ann. Statist. 2001).
            (3, (2,) * 4, 14, 13),
        ],
    )
    def test_one_jacobian_of_b_rows_and_one_elimination(
        self, monkeypatch, card, leaves, bound, expected
    ):
        built, eliminated = [], []

        def build(component, point, weights, p):
            built.append(len(rows := lc_jacobian_at(component, point, weights, p)))
            return rows

        def rank_of(rows, p):
            eliminated.append(len(rows))
            return exact_rank(rows, p)

        monkeypatch.setattr(rank, "lc_jacobian_at", build)
        monkeypatch.setattr(rank, "exact_rank", rank_of)
        # All but c = 3 over 4 binary leaves are certified; with the
        # certificates off, they check the rank path every other one takes.
        # Those six reach b in one GF(2**31 - 1) rank, which proves it for
        # both trials; c = 3 over 4 leaves falls short in it and takes both.
        monkeypatch.setattr(rank, "certified_rank", lambda c, cards: None)
        component = _component(card, leaves)
        assert lc_rank_trials(component, trials=2) == (expected, expected)
        assert built == eliminated == [bound] * (1 if bound == expected else 3)

    def test_over_the_cell_limit_raises_before_any_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a parameter point was drawn")

        real_draw = rank.sample_lc_point
        monkeypatch.setattr(rank, "sample_lc_point", no_draw)
        # c = 5 over three ternary leaves, not certified: b = 26 by n = 34.
        monkeypatch.setattr(rank, "CELL_LIMIT", 26 * 34 - 1)
        component = _component(5, (3, 3, 3))
        message = (
            r"^rank of latent cardinality 5 over 3 neighbors of cardinalities "
            r"\{3\} needs 26 x 34 cells > 883$"
        )
        with pytest.raises(CellLimitError, match=message):
            lc_rank_trials(component, trials=1)
        # c = 2 over 20 binary leaves, b = n = 41: certified, so neither
        # the limit nor a draw is reached.
        assert lc_rank_trials(_component(2, (2,) * 20), trials=2) == (41, 41)
        monkeypatch.setattr(rank, "sample_lc_point", real_draw)
        monkeypatch.setattr(rank, "CELL_LIMIT", 26 * 34)
        assert lc_rank_trials(component, trials=1) == (26,)
        # Deficient components are bounded by the same b x n cells.
        monkeypatch.setattr(rank, "CELL_LIMIT", 14 * 14 - 1)
        with pytest.raises(CellLimitError, match=r"\{2\} needs 14 x 14 cells"):
            lc_rank_trials(_component(3, (2,) * 4), trials=1)


class TestOneEngine:
    def test_lc_and_oracle_jacobians_run_through_the_shared_driver(
        self, monkeypatch
    ):
        # Both ranks take their rows from the one driver in rank.
        assert oracle.jacobian is rank.jacobian
        real, calls = rank.jacobian, []

        def counted(model, point, weights, p=PRIME):
            calls.append(len(model.variables))
            return real(model, point, weights, p)

        for module in (rank, oracle):
            monkeypatch.setattr(module, "jacobian", counted)
        # The pinned c = 2 over (2, 2, 2): 49 cells, below every certificate.
        component = _component(2, (2, 2, 2))
        point = sample_lc_point(component, random.Random(0))
        assert len(full_lc_jacobian(component, point)) == 7
        assert calls == [4]
        assert lc_rank_trials(component, trials=2) == (7, 7)
        assert calls == [4, 4, 4]
        model = latent_class_model(2, (2, 2, 2))
        assert oracle.oracle_effective_dimension(model, 2) == 7
        assert calls == [4] * 4  # its first trial reaches k = 7 and ends the loop


class TestOnePointFormat:
    @pytest.mark.parametrize(
        "card,leaves",
        [(1, (3,)), (2, (2, 2, 2)), (3, (2, 3, 4)), (2, (1, 3)), (4, (3,) * 3)],
    )
    def test_a_component_is_ranked_as_its_latent_class_model(self, card, leaves):
        # Any ids: the star numbers the latent 0 and the neighbors 1, 2, ...
        neighbors = tuple(enumerate(leaves, 5))
        component = LcComponent(9, card, neighbors)
        model = latent_class_model(card, leaves)
        shape = [
            ([(v.id, v.cardinality, v.observed) for v in m.variables], m.edges)
            for m in (component.star, model)
        ]
        assert shape[0] == shape[1]
        for s in range(3):
            point = sample_lc_point(component, random.Random(s))
            assert point == sample_full_point(model, random.Random(s))
            weights = _random_weights(random.Random(s + 10), leaves, 4)
            rows = lc_jacobian_at(component, point, weights)
            assert rows == observed_joint_jacobian(model, point, weights)
            assert len(rows[0]) == standard_dimension(component.star)


class TestOneStateLatent:
    def test_rank_is_the_parameter_count_without_a_draw(self, monkeypatch):
        # One class makes the neighbors independent: rank sum(card - 1).
        def no_draw(component, rng):
            raise AssertionError("a parameter point was drawn")

        monkeypatch.setattr(rank, "sample_lc_point", no_draw)
        for leaves in [(300, 7), (2,), (1, 5), (2**40, 3), (2,) * 1100]:
            n = sum(card - 1 for card in leaves)
            assert lc_rank_trials(_component(1, leaves), trials=2) == (n, n)

    def test_no_rows_give_rank_zero_without_a_draw(self, monkeypatch):
        # One-state neighbors leave one joint state: b = 0 rows, rank 0 at
        # any latent cardinality, with no point drawn however wide the latent.
        assert oracle.oracle_effective_dimension(latent_class_model(2, (1,) * 3)) == 0

        def no_draw(component, rng):
            raise AssertionError("a parameter point was drawn")

        monkeypatch.setattr(rank, "sample_lc_point", no_draw)
        for card in (2, 2**16, 2**18 + 2, 10**40):
            assert lc_rank_trials(_component(card, (1,) * 3), trials=2) == (0, 0)

    def test_equals_the_generic_rank_on_small_shapes(self):
        rng = random.Random(11)
        for _ in range(30):
            leaves = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 4)))
            component = _component(1, leaves)
            seed = rng.randrange(100)
            (found,) = lc_rank_trials(component, trials=1, seed=seed)
            trial_rng = random.Random(derive_seed(seed, "lc-trial", 0))
            assert found == reference_lc_rank(component, trial_rng)
            point = sample_lc_point(component, rng)
            assert found == exact_rank(full_lc_jacobian(component, point))


BOTH_FIELDS = pytest.mark.parametrize(
    "p", [PRIME, SMALL_PRIME], ids=["2^61-1", "2^31-1"]
)


class TestBothFields:
    """The packed elimination's carry and fold edge cases in GF(2**31 - 1),
    and in GF(2**61 - 1) where TestPackedEliminationMatchesReference does
    not reach, against the list-based reference in the same field."""

    @staticmethod
    def _check(mat, p):
        transposed = [list(col) for col in zip(*mat)]
        assert exact_rank(mat, p) == reference_rank(mat, p)
        assert exact_rank(transposed, p) == reference_rank(transposed, p)
        return exact_rank(mat, p)

    def test_entries_negative_above_the_prime_or_multiples_of_it(self):
        p, rng = SMALL_PRIME, random.Random(9)
        pool = [0, 1, -1, p, -p, 2 * p, p - 1, p + 1,
                1 - p, 3 * p + 5, 2**64, -(2**70), 7, -7]
        for _ in range(60):
            m, n = rng.randint(1, 9), rng.randint(1, 9)
            self._check([[rng.choice(pool) for _ in range(n)] for _ in range(m)], p)
        for _ in range(20):
            mat = random_product_matrix(rng, 8, rng.randint(1, 8), 8)
            shifted = [[x + rng.randint(-5, 5) * p for x in row] for row in mat]
            assert exact_rank(shifted, p) == self._check(mat, p)
        assert exact_rank([[p, -3 * p], [2 * p, 0]], p) == 0

    def test_only_the_two_mersenne_fields_pack(self):
        # 2**40 - 87 is prime but not 2**e - 1, so its fold would be wrong;
        # 7 is 2**3 - 1, but its slots would be narrower than a 64-bit word;
        # the residues of 2**89 - 1 do not fit the 64-bit word a slot packs.
        for p in (2**40 - 87, 7, 2**89 - 1):
            with pytest.raises(ValueError, match=f"^no packed field for p = {p}$"):
                exact_rank([[1, 2], [3, 4]], p)

    @BOTH_FIELDS
    @pytest.mark.parametrize("n", [15, 16, 255, 256])
    def test_square_matrices_around_the_slot_width_steps(self, p, n):
        # Slots are 2e + 2 + n.bit_length() bits, rounded up to bytes: 128
        # to 136 between n = 15 and 16 for e = 61, 72 to 80 between n = 255
        # and 256 for e = 31; a wide matrix has min(m, n) slots, so only a
        # square one reaches them.  -(J + 2I) mod p has determinant
        # +-2**(n-1) * (n + 2) != 0, and row i meets all i earlier pivots.
        mat = [[p - 1 - 2 * (i == j) for j in range(n)] for i in range(n)]
        assert exact_rank(mat, p) == n
        # n I - J mod p has the all-ones vector in its kernel: rank n - 1.
        mat = [[p - 1 + (n + p) * (i == j) for j in range(n)] for i in range(n)]
        assert exact_rank(mat, p) == n - 1
        if n < 20:
            rng = random.Random(n)
            odd = [[rng.randrange(-p, 2 * p) for _ in range(n)] for _ in range(n)]
            self._check(odd, p)
            self._check(random_product_matrix(rng, n, n // 2, n, p - 1), p)

    @BOTH_FIELDS
    def test_draws_and_jacobian_entries_lie_in_the_field(self, p):
        component = _component(3, (2, 3, 4))
        rng = random.Random(4)
        draws = field_draws(rng, 500, p)
        assert all(0 <= x < p for x in draws) and max(draws) > p // 2
        point = sample_lc_point(component, rng, p)
        assert all(0 <= x < p for t in point for b in t for x in b)
        assert all(sum(b) % p == 1 for t in point for b in t)
        weights = rank._functionals(rng, (2, 3, 4), 5, p)
        rows = lc_jacobian_at(component, point, weights, p)
        assert all(0 <= x < p for row in rows for x in row)

    def test_the_widest_small_field_slots_fold_below_2p(self, monkeypatch):
        # The fold needs W <= 3e - 1 bits, 92 for e = 31.  Under CELL_LIMIT
        # the LC engine's widest layouts are exact_rank's narrow side of 512
        # (b <= n and b * n <= 512**2), recorded below, and the passes' at a
        # cardinality of 2**18: every star variable has at most n + 1 states.
        e, requested = SMALL_PRIME.bit_length(), []
        layout = rank._layout

        def recorded(count, bits, p):
            requested.append((count, bits, p))
            return layout(count, bits, p)

        monkeypatch.setattr(rank, "_layout", recorded)
        assert 512**2 == CELL_LIMIT
        assert exact_rank([[0] * 512] * 512, SMALL_PRIME) == 0
        assert requested == [(512, 2 * e + 2 + (512).bit_length(), SMALL_PRIME)]
        inside = 2 * e + 1 + (2**18).bit_length()
        for bits in (requested[0][1], inside):
            slots = layout(3, bits, SMALL_PRIME)
            assert slots.width <= 3 * e - 1 == 92
            # Every slot value below 2**W folds below 2p, congruent mod p.
            top, rng = (1 << slots.width) - 1, random.Random(bits)
            for values in ([top] * 3, [SMALL_PRIME, 2 * SMALL_PRIME - 1, 0],
                           [rng.randrange(top) for _ in range(3)]):
                vec = sum(v << i * slots.width for i, v in enumerate(values))
                folded = slots.fold(vec)
                out = [folded >> i * slots.width & top for i in range(3)]
                assert folded >> 3 * slots.width == 0
                assert all(o < 2 * SMALL_PRIME for o in out)
                assert all((o - v) % SMALL_PRIME == 0 for o, v in zip(out, values))


class TestSmallFieldFirst:
    """A component of at least 2**6 Jacobian cells that no theorem settles
    is ranked once in GF(2**31 - 1) before any trial.  A rank that reaches
    b proves b for every trial; a shortfall leaves exactly the GF(2**61 - 1)
    trials, so no trial tuple mixes the two fields."""

    @staticmethod
    def _fields(monkeypatch):
        fields = []

        def rank_of(rows, p):
            fields.append(p)
            return exact_rank(rows, p)

        monkeypatch.setattr(rank, "exact_rank", rank_of)
        return fields

    @pytest.mark.parametrize(
        "card,leaves", [(2, (2, 2, 2)), (2, (2, 3)), (3, (2, 2)), (2, (5,))]
    )
    def test_small_components_rank_in_the_wide_field_only(
        self, monkeypatch, card, leaves
    ):
        # 49, 35, 24 and 36 cells: the pinned model and the canaries.
        fields = self._fields(monkeypatch)
        component = _component(card, leaves)
        found = lc_rank_trials(component, trials=2, seed=3)
        assert found == reference_trial_ranks(component, 2, 3)
        assert fields == [PRIME, PRIME]

    @pytest.mark.parametrize(
        "card,leaves", [(4, (2, 3, 3)), (2, (20,)), (3, (12,)), (4, (2, 2, 5))]
    )
    def test_a_proven_small_field_rank_is_kept(self, monkeypatch, card, leaves):
        # 391, 741, 385 and 513 cells, none certified, each of full rank b.
        fields = self._fields(monkeypatch)
        component = _component(card, leaves)
        found = lc_rank_trials(component, trials=3, seed=3)
        assert found == reference_trial_ranks(component, 3, 3)
        assert len(set(found)) == 1 and fields == [SMALL_PRIME]

    def test_a_deficient_component_pays_for_one_small_field_trial(self, monkeypatch):
        # c = 4 over three ternary leaves: b = 26 over 27 columns, rank 25
        # (Strassen): the first small-field trial falls short of b.
        fields = self._fields(monkeypatch)
        component = _component(4, (3, 3, 3))
        assert lc_rank_trials(component, trials=3, seed=3) == (25, 25, 25)
        assert fields == [SMALL_PRIME, PRIME, PRIME, PRIME]

    @pytest.mark.parametrize("trials", [1, 3, MAX_TRIALS])
    def test_one_small_field_rank_settles_every_trial(self, monkeypatch, trials):
        # c = 6 over (3, 3, 3): 26 x 41 cells, uncertified, of full rank b = 26.
        fields = self._fields(monkeypatch)
        found = lc_rank_trials(_component(6, (3, 3, 3)), trials=trials, seed=3)
        assert found == (26,) * trials and fields == [SMALL_PRIME]

    @pytest.mark.parametrize("trials", [1, 2, 5])
    def test_a_real_shortfall_leaves_the_wide_field_trials(self, monkeypatch, trials):
        # c = 4 over three ternary leaves falls short of b = 26 in any field.
        fields = self._fields(monkeypatch)
        component = _component(4, (3, 3, 3))
        found = lc_rank_trials(component, trials=trials, seed=3)
        assert found == reference_trial_ranks(component, trials, 3)
        assert fields == [SMALL_PRIME] + [PRIME] * trials

    def test_a_shortfall_falls_back_to_the_wide_field_trial(self, monkeypatch):
        # Every small-field rank is made to fall one short of b: the
        # component returns the tuple of its GF(2**61 - 1) trials exactly.
        fields = []

        def short(rows, p):
            fields.append(p)
            return exact_rank(rows, p) - (p == SMALL_PRIME)

        monkeypatch.setattr(rank, "exact_rank", short)
        for card, leaves in [(5, (3,) * 3), (2, (20,)), (6, (3,) * 3)]:
            component = _component(card, leaves)
            fields.clear()
            found = lc_rank_trials(component, trials=3, seed=7)
            assert found == reference_trial_ranks(component, 3, 7)
            assert fields == [SMALL_PRIME, PRIME, PRIME, PRIME]

    def test_the_small_field_has_its_own_seeds(self, monkeypatch):
        seeds = []
        real = rank.derive_seed

        def recorded(*parts):
            seeds.append(parts)
            return real(*parts)

        monkeypatch.setattr(rank, "derive_seed", recorded)
        lc_rank_trials(_component(4, (3, 3, 3)), trials=2, seed=5)
        assert seeds == [
            (5, "lc-small-trial", 0), (5, "lc-trial", 0), (5, "lc-trial", 1)
        ]


class TestCertifiedRank:
    """rank.certified_rank equals the rank path before it had certificates,
    support.reference_trial_ranks, wherever it certifies; lc_rank_trials
    uses it from 2**6 cells on, with no draw.  Kruskal's condition is
    tried on two splits of the neighbors, greedy and balanced."""

    @staticmethod
    def _rank_path(card, cards):
        return max(reference_trial_ranks(_component(card, cards), 2, 0))

    def test_the_binary_leaf_table(self):
        # c = 1 to 8 classes over 3 to 10 binary leaves: all but the
        # defective c = 3 over 4 leaves are certified.
        for leaves in range(3, 11):
            for card in range(1, 9):
                found = certified_rank(card, (2,) * leaves)
                if (card, leaves) == (3, 4):
                    assert found is None
                elif card == 1:  # no trial: the rank is the parameter count
                    assert found == leaves
                else:
                    assert found == self._rank_path(card, (2,) * leaves), leaves

    def test_a_seeded_sweep(self):
        # 2 to 8 leaves of 2 to 5 states, c = 2 to 10, under the cell limit:
        # about 2 s, 61 of the 80 certified.  Every certificate and every
        # other component's best trial lies within the flattening bound,
        # which shares no code with either.
        rng, certified, deficient, proven = random.Random(11), 0, [], []
        for _ in range(80):
            cards = tuple(rng.randint(2, 5) for _ in range(rng.randint(2, 8)))
            card = rng.randint(2, 10)
            component = _component(card, cards)
            n = standard_dimension(component.star)
            b = min(n, math.prod(cards) - 1)
            if b * n > CELL_LIMIT:
                continue
            found = certified_rank(card, cards)
            if found is not None:
                certified += 1
                assert found == self._rank_path(card, cards), (card, cards)
            else:
                found = max(lc_rank_trials(component, trials=2))
            bound = flattening_bound(card, cards)
            assert found <= bound, (card, cards)
            if found < b:
                (proven if found == bound else deficient).append((card, cards))
        assert certified >= 61
        # One deficient component, which the bound does not prove: c = 7 over
        # (5, 5, 3) at 73 of b = 74, Strassen's 3 x n x n hypersurface (n = 5).
        assert (deficient, proven) == ([(7, (5, 5, 3))], [])

    def test_defective_components_are_not_certified(self):
        # Ranks 13 of b = 14, 25 of 26 (Strassen) and at most 3 * 10**6 + 2
        # of 3 * 10**6 + 5 (a 4 x 10**6 flattening of rank 3); one-state
        # neighbors are not read.
        for card, cards in [(3, (2, 2, 2, 2)), (4, (3, 3, 3)), (3, (2, 2, 10**6))]:
            assert certified_rank(card, cards) is None
            assert certified_rank(card, (1, *cards, 1)) is None

    def test_only_components_of_2_6_cells_or_more_are_certified(self, monkeypatch):
        drawn = []
        real = rank.field_draws

        def recorded(rng, count, p=PRIME):
            drawn.append(count)
            return real(rng, count, p)

        monkeypatch.setattr(rank, "field_draws", recorded)
        # The pinned c = 2 over 3 binary leaves, b = n = 7, 49 cells: ranked.
        assert lc_rank_trials(_component(2, (2,) * 3), trials=2) == (7, 7)
        assert drawn and certified_rank(2, (2,) * 3) == 7
        drawn.clear()
        # spine's 4 leaves, 81 cells: certified, for every trial, with no draw.
        assert lc_rank_trials(_component(2, (2,) * 4), trials=3) == (9,) * 3
        assert drawn == []

    def test_the_balanced_split_certifies_what_the_greedy_one_misses(self):
        # Every component of 3 to 5 neighbors of 2 to 5 states, c <= 9, of
        # at most 6,000 cells, certified where the greedy split (below) and
        # the binary fact are not: each equals the rank path.
        def greedy(card, cards):
            rest, kruskal = iter(cards), 0
            for _ in range(3):
                product = 1
                while product < card and (r := next(rest, None)):
                    product *= r
                kruskal += min(card, product)
            return kruskal

        found = []
        for size in range(3, 6):
            for cards in itertools.combinations_with_replacement((5, 4, 3, 2), size):
                for card in range(2, 10):
                    n = card * (1 + sum(cards) - size) - 1
                    if min(n, math.prod(cards) - 1) * n > 6000 or set(cards) == {2}:
                        continue
                    certified = certified_rank(card, cards)
                    if certified is not None and greedy(card, cards) < 2 * card + 2:
                        found.append((card, cards))
                        assert certified == self._rank_path(card, cards), found[-1]
        assert len(found) == 46
        assert (4, (3, 3, 3, 3)) in found and (4, (3, 3, 2, 2)) in found

    def test_neither_split_certifies_c_4_or_6_over_three_ternary_leaves(self):
        # Strassen's deficient c = 4 and lc_wide's c = 6, whose joint fills
        # the simplex: min(c, 3) summed over three leaves stays below 2c + 2.
        assert certified_rank(4, (3, 3, 3)) is None
        assert certified_rank(6, (3, 3, 3)) is None

    @pytest.mark.parametrize(
        "card,leaves,expected",
        [
            # lc_wide's lc4x6 and lc3x11 (Kruskal) and lc4x4 (binary).
            (4, (3,) * 6, 51),
            (3, (2,) * 11, 35),
            (4, (2,) * 4, 15),
            # Past CELL_LIMIT: two neighbors, Kruskal, binary.
            (2, (20_000, 20_000), 79_995),
            (2, (2, 2, 10**40), 2 * 10**40 + 3),
            (2, (2,) * 1100, 2201),
            # Binary, where no split reaches 2c + 2 = 202.
            (100, (2,) * 8, 255),
            # Only the balanced split: (3, 3) | 3 | 3, 3 | 3 | (2, 2),
            # 5 | 5 | 5 and 16 | 16 | 16.
            (4, (3,) * 4, 35),
            (4, (2, 2, 3, 3), 27),
            (6, (5,) * 3, 77),
            (17, (16,) * 3, 781),
        ],
    )
    def test_certified_components_take_no_draw(
        self, monkeypatch, card, leaves, expected
    ):
        def no_draw(*args):
            raise AssertionError("a parameter point was drawn")

        monkeypatch.setattr(rank, "field_draws", no_draw)
        component = _component(card, leaves)
        assert lc_rank_trials(component, trials=MAX_TRIALS) == (expected,) * MAX_TRIALS


class TestTrialsCap:
    def test_trials_past_the_cap_are_refused_before_any_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a parameter point was drawn")

        monkeypatch.setattr(rank, "sample_lc_point", no_draw)
        for component in (_component(2, (2, 2, 2)), _component(1, (2, 2, 2))):
            for trials in (MAX_TRIALS + 1, 10**20, 0, -5):
                with pytest.raises(ValueError, match="^trials must be "):
                    lc_rank_trials(component, trials=trials)
        with pytest.raises(ValueError, match=f"^trials must be <= {MAX_TRIALS}$"):
            oracle.oracle_effective_dimension(latent_class_model(1, (2,) * 3), 10**20)

    def test_the_cap_itself_is_allowed(self):
        assert lc_rank_trials(_component(1, (2, 2, 2)), MAX_TRIALS) == (3,) * MAX_TRIALS
        model = latent_class_model(2, (2, 2, 2))
        assert oracle.oracle_effective_dimension(model, MAX_TRIALS) == 7
