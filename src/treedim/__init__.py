"""Exact dimensions of tree-structured latent variable models.

Computes the standard (parameter-count) dimension and the effective
dimension (the almost-everywhere rank of the map from parameters to the
observed joint distribution) of undirected tree models with observed
and latent nodes, in exact prime-field arithmetic, plus the
penalized-likelihood scores built on those dimensions.

The package exports the documented API; the pipeline stages live in
the submodules ``model``, ``decompose``, ``rank``, ``oracle``, ``iface``
and ``score``.
"""

from .decompose import RankPolicy, effective_dimension
from .iface import ModelParseError, parse_model, report_lines, run
from .model import InvalidModelError, TreeModel, Variable
from .oracle import oracle_effective_dimension
from .rank import CellLimitError
from .score import ScoreInput, bic, bice

__all__ = [
    "TreeModel",
    "Variable",
    "RankPolicy",
    "effective_dimension",
    "oracle_effective_dimension",
    "parse_model",
    "report_lines",
    "run",
    "ScoreInput",
    "bic",
    "bice",
    "InvalidModelError",
    "ModelParseError",
    "CellLimitError",
]
