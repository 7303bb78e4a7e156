"""Model file format, reports, and the command line.

Model files are plain text: ``var <name> <cardinality> <observed|latent>``
declares a variable, ``edge <name1> <name2>`` connects two previously
declared variables, ``#`` starts a comment, blank lines are ignored.
Reports are ordered ``key=value`` lines and are byte-identical for
identical inputs and flags.

Exit codes: 0 success; 1 usage error, unreadable model file, parse or
validation error, a score beyond float range or a ds too long to print;
2 oracle parameter limit exceeded under ``--oracle``; 3 oracle/decomposition
mismatch; 4 a latent-class rank over the row or cell limit (see
``treedim.rank._spread_rank``).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Sequence

from .decompose import DimensionResult, RankPolicy, effective_dimension
from .model import (
    InvalidModelError,
    RegularizationStep,
    TreeModel,
    Variable,
    regularize,
    require_valid,
    standard_dimension,
)
from .oracle import OracleLimitError, oracle_effective_dimension
from .rank import DEFAULT_TRIALS, RowLimitError
from .score import ScoreInput, bic, bice


class ModelParseError(ValueError):
    """Syntax or declaration error in a model file, with its line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def parse_model(text: str) -> TreeModel:
    """Parse model-file text; raises on syntax or structural problems."""
    variables: list[Variable] = []
    ids: dict[str, int] = {}
    edges: list[tuple[int, int]] = []

    for line_number, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "var":
            if len(tokens) != 4:
                raise ModelParseError(
                    line_number, "expected: var <name> <cardinality> <observed|latent>"
                )
            _, name, card_text, flag = tokens
            if name in ids:
                raise ModelParseError(line_number, f"duplicate variable name {name!r}")
            try:
                cardinality = int(card_text)
            except ValueError:
                raise ModelParseError(
                    line_number, f"cardinality must be an integer, got {card_text!r}"
                ) from None
            if cardinality < 1:
                raise ModelParseError(line_number, "cardinality must be >= 1")
            if flag not in ("observed", "latent"):
                raise ModelParseError(
                    line_number, f"flag must be 'observed' or 'latent', got {flag!r}"
                )
            ids[name] = len(variables)
            variables.append(
                Variable(ids[name], name, cardinality, flag == "observed")
            )
        elif kind == "edge":
            if len(tokens) != 3:
                raise ModelParseError(line_number, "expected: edge <name1> <name2>")
            for name in tokens[1:]:
                if name not in ids:
                    raise ModelParseError(line_number, f"unknown variable {name}")
            edges.append((ids[tokens[1]], ids[tokens[2]]))
        else:
            raise ModelParseError(line_number, f"unknown directive {kind!r}")

    model = TreeModel(tuple(variables), tuple(edges))
    require_valid(model)
    return model


def serialize_model(model: TreeModel) -> str:
    """Render a model in the file format; parse(serialize(m)) == m for
    models whose ids are contiguous, and is structurally identical
    otherwise."""
    names = {v.id: v.name for v in model.variables}
    lines = [
        f"var {v.name} {v.cardinality} {'observed' if v.observed else 'latent'}"
        for v in model.variables
    ]
    lines.extend(f"edge {names[a]} {names[b]}" for a, b in model.edges)
    return "\n".join(lines) + "\n"


def _regularization_entries(
    log: Sequence[RegularizationStep], names: dict[int, str]
) -> list[str]:
    entries = []
    for step in log:
        if step.kind == "remove":
            a, b = step.joined
            entries.append(f"remove:{step.variable_name}:join={names[a]}-{names[b]}")
        else:
            entries.append(
                f"reduce:{step.variable_name}:"
                f"{step.old_cardinality}->{step.new_cardinality}"
            )
    return entries


def report_lines(
    model: TreeModel, result: DimensionResult, seed: int, trials: int
) -> list[str]:
    """Full machine-readable report for a dimension computation."""
    names = {v.id: v.name for v in model.variables}
    lines = [
        f"ds={result.standard_dimension}",
        f"de={result.effective_dimension}",
    ]
    ledger = result.ledger
    for i, (component, dim) in enumerate(
        zip(ledger.lc_components, result.component_dimensions)
    ):
        lines.append(f"component.{i}.latent={names[component.latent_id]}")
        lines.append(f"component.{i}.card={component.latent_cardinality}")
        lines.append(
            f"component.{i}.neighbors="
            + ",".join(str(card) for _, card in component.neighbors)
        )
        lines.append(f"component.{i}.de={dim}")
    for i, correction in enumerate(ledger.latent_edge_corrections):
        lines.append(f"correction.latent_edge.{i}={correction.shared_parameters}")
    for i, correction in enumerate(ledger.observed_cut_corrections):
        lines.append(f"correction.observed_cut.{i}={correction.amount}")
    lines.append(
        "pruned=" + ",".join(names[vid] for vid in ledger.pruned_latent_leaves)
    )
    lines.append(
        "regularized="
        + ";".join(_regularization_entries(ledger.regularization_log, names))
    )
    lines.append(f"seed={seed}")
    lines.append(f"trials={trials}")
    return lines


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep exit codes under our control
        raise _UsageError(message)


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="treedim",
        description="Standard and effective dimensions of tree latent-variable models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dims = sub.add_parser("dims", help="compute dimensions of a model file")
    dims.add_argument("model", help="model file path")
    dims.add_argument(
        "--trials",
        type=_int_at_least(1),
        default=DEFAULT_TRIALS,
        help="random rank trials",
    )
    dims.add_argument("--seed", type=int, default=0, help="random seed")
    dims.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check against the brute-force computation",
    )
    dims.add_argument("--report", action="store_true", help="full report output")

    score = sub.add_parser("score", help="penalized-likelihood scores")
    score.add_argument("model", help="model file path")
    score.add_argument("--loglik", type=_finite_float, required=True)
    score.add_argument(
        "--n", type=_int_at_least(1), required=True, help="sample size"
    )
    score.add_argument(
        "--de",
        type=_int_at_least(0),
        default=None,
        help="effective dimension, if already known",
    )

    reg = sub.add_parser("regularize", help="print the regularized model")
    reg.add_argument("model", help="model file path")
    return parser


def _load_model(path_text: str) -> TreeModel:
    data = Path(path_text).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_number = data.count(b"\n", 0, exc.start) + 1
        message = f"not UTF-8 text (byte {data[exc.start]:#04x})"
        raise ModelParseError(line_number, message) from None
    return parse_model(text)


def _run_dims(args, model: TreeModel) -> int:
    policy = RankPolicy(trials=args.trials, seed=args.seed)
    result = effective_dimension(model, policy)
    try:  # its first two lines are ds= and de=
        lines = report_lines(model, result, args.seed, args.trials)
    except ValueError:  # str() refuses an int past sys.get_int_max_str_digits()
        limit = sys.get_int_max_str_digits()
        print(f"error: ds has more than {limit} digits to print", file=sys.stderr)
        return 1
    if not args.report:
        lines = lines[:2]
    if args.oracle:
        try:
            oracle_de = oracle_effective_dimension(
                model, trials=args.trials, seed=args.seed
            )
        except OracleLimitError as exc:
            print("\n".join(lines))
            print(f"error: {exc}", file=sys.stderr)
            return 2
        lines.insert(2, f"oracle_de={oracle_de}")
        if oracle_de != result.effective_dimension:
            print("\n".join(lines))
            print(
                "error: decomposition and oracle disagree "
                f"({result.effective_dimension} vs {oracle_de})",
                file=sys.stderr,
            )
            return 3
    print("\n".join(lines))
    return 0


def _run_score(args, model: TreeModel) -> int:
    ds = standard_dimension(model)
    if args.de is not None:
        if args.de > ds:
            message = f"--de {args.de} exceeds the standard dimension {ds}"
            print(f"error: {message}", file=sys.stderr)
            return 1
        de = args.de
    else:
        de = effective_dimension(model, RankPolicy()).effective_dimension
    score_input = ScoreInput(loglik=args.loglik, sample_size=args.n)
    try:
        scores = bic(score_input, ds), bice(score_input, de)
    except OverflowError as exc:
        print(f"error: score out of float range: {exc}", file=sys.stderr)
        return 1
    print(f"ds={ds}\nde={de}\nbic={scores[0]}\nbice={scores[1]}")
    return 0


def _run_regularize(args, model: TreeModel) -> int:
    regular, log = regularize(model)
    names = {v.id: v.name for v in model.variables}
    entries = _regularization_entries(log, names)
    comments = [f"# {entry}" for entry in entries] or ["# no changes"]
    print("\n".join(comments))
    print(serialize_model(regular), end="")
    return 0


def run(argv: Sequence[str]) -> int:
    """Run the command line; returns the process exit code."""
    try:
        args = _build_parser().parse_args(list(argv))
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        model = _load_model(args.model)
    except (OSError, ModelParseError, InvalidModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    commands = {"dims": _run_dims, "score": _run_score, "regularize": _run_regularize}
    try:
        return commands[args.command](args, model)
    except RowLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run(sys.argv[1:]))
