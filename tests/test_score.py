"""Penalized-likelihood scores."""

from __future__ import annotations

import math

import pytest

from treedim import ScoreInput, bic, bice


class TestScoreInput:
    def test_sample_size_must_be_positive(self):
        with pytest.raises(ValueError):
            ScoreInput(loglik=-5.0, sample_size=0)

    def test_positive_loglik_warns_but_is_accepted(self):
        with pytest.warns(UserWarning):
            score_input = ScoreInput(loglik=2.5, sample_size=10)
        assert score_input.loglik == 2.5


class TestScores:
    def test_zero_dimension_is_the_loglik(self):
        score_input = ScoreInput(loglik=0.0, sample_size=123)
        assert bic(score_input, 0) == 0.0
        assert bice(score_input, 0) == 0.0

    def test_known_value(self):
        n = round(math.e**2)  # ln N ~= 2 up to rounding of N
        score_input = ScoreInput(loglik=-100.0, sample_size=n)
        assert bic(score_input, 4) == pytest.approx(
            -100.0 - 2 * math.log(n), rel=1e-12
        )

    def test_dimension_ordering_drives_score_ordering(self):
        score_input = ScoreInput(loglik=-8000.0, sample_size=10000)
        assert bic(score_input, 45) < bic(score_input, 44)
        assert bice(score_input, 43) > bice(score_input, 44)

    def test_equal_dimensions_give_equal_scores(self):
        score_input = ScoreInput(loglik=-10.0, sample_size=50)
        assert bic(score_input, 7) == bice(score_input, 7)

    def test_score_gap_is_half_dimension_gap_times_log_n(self):
        score_input = ScoreInput(loglik=-321.5, sample_size=987)
        for ds, de in [(45, 43), (10, 10), (3, 0)]:
            gap = bic(score_input, ds) - bice(score_input, de)
            expected = (de - ds) / 2 * math.log(987)
            assert gap == pytest.approx(expected, rel=1e-12)

    def test_strictly_anti_monotone_in_dimension(self):
        score_input = ScoreInput(loglik=-1.0, sample_size=3)
        values = [bic(score_input, d) for d in range(6)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_penalty_beyond_float_range_raises(self):
        score_input = ScoreInput(loglik=-1.0, sample_size=10)
        # Beyond float range as an int, and as a product with log N.
        for dimension in (10**400, 10**308):
            with pytest.raises(OverflowError):
                bic(score_input, dimension)
        # log 1 = 0: no penalty, whatever the dimension.
        assert bice(ScoreInput(loglik=-1.0, sample_size=1), 10**400) == -1.0

    def test_negative_dimension_rejected(self):
        score_input = ScoreInput(loglik=-1.0, sample_size=3)
        with pytest.raises(ValueError):
            bic(score_input, -1)
