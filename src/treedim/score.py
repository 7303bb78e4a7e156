"""Penalized-likelihood scores for model selection.

Both scores subtract half the model dimension times the natural log of
the sample size from a maximized log-likelihood supplied by the caller;
they differ only in which dimension goes into the penalty.  Likelihood
maximization itself is out of scope here.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass


@dataclass(frozen=True)
class ScoreInput:
    """A maximized natural-log likelihood and the sample size behind it."""

    loglik: float
    sample_size: int

    def __post_init__(self) -> None:
        if self.sample_size < 1:
            raise ValueError("sample size must be >= 1")
        if self.loglik > 0:
            warnings.warn(
                "positive log-likelihood is impossible for discrete data",
                stacklevel=3,
            )


def bic(score_input: ScoreInput, model_dimension: int) -> float:
    """Log-likelihood penalized by the standard (parameter-count) dimension."""
    if model_dimension < 0:
        raise ValueError("model dimension must be >= 0")
    log_n = math.log(score_input.sample_size)
    penalty = model_dimension * log_n / 2 if log_n else 0.0  # OverflowError > 2**1024
    if penalty == math.inf:  # the dimension fits a float, the product does not
        raise OverflowError("dimension times log N overflows")
    return score_input.loglik - penalty


def bice(score_input: ScoreInput, effective_dimension: int) -> float:
    """Log-likelihood penalized by the effective (Jacobian-rank) dimension."""
    return bic(score_input, effective_dimension)
