"""Model file format, reports, and the command line.

Model files are plain text: ``var <name> <cardinality> <observed|latent>``
declares a variable, ``edge <name1> <name2>`` connects two previously
declared variables, ``#`` starts a comment, blank lines are ignored.
Reports are ordered ``key=value`` lines and are byte-identical for
identical inputs and flags.

Each failure is one ``error:`` line on stderr, cut past 150 characters,
and each warning one ``warning:`` line.  Exit codes: 0 success; 1 usage
error, unreadable model file, parse or validation error, a score beyond
float range, a ds (or under ``--report`` any report value) too long to
print or a stdout closed before the output was written; 2 an oracle over
the cell limit under ``--oracle``; 3 oracle/decomposition mismatch; 4 a
latent-class rank over the same limit, ``treedim.rank.CELL_LIMIT``, that
no theorem settles (``treedim.rank.certified_rank``); both limits raise
``CellLimitError``.  A closed stdout leaves a code of 2 or 3
as it is, and its ``error:`` line follows the command's.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import os
import sys
import warnings
from pathlib import Path
from typing import Sequence

from .decompose import DimensionResult, RankPolicy, effective_dimension
from .model import (
    InvalidModelError,
    RegularizationStep,
    TreeModel,
    Variable,
    regularize,
    standard_dimension,
)
from .oracle import oracle_effective_dimension
from .rank import DEFAULT_TRIALS, CellLimitError, check_trials
from .score import ScoreInput, bic, bice


class ModelParseError(ValueError):
    """Error in a model file at a line."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")


def parse_model(text: str) -> TreeModel:
    """Parse model-file text; raises on syntax or structural problems."""
    variables: list[Variable] = []
    ids: dict[str, int] = {}
    edges: list[tuple[int, int]] = []

    for line_number, raw in enumerate(text.splitlines(), 1):
        tokens = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not tokens:
            continue
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
                problem = f"must be an integer, got {card_text!r}"
                # int() refuses digits, after at most one sign, only past the limit
                if card_text[card_text[0] in "+-" :].isdecimal():
                    problem = f"has more than {sys.get_int_max_str_digits()} digits"
                raise ModelParseError(line_number, f"cardinality {problem}") from None
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
            a, b = ids.get(tokens[1]), ids.get(tokens[2])
            if a is None or b is None:
                missing = tokens[1] if a is None else tokens[2]
                raise ModelParseError(line_number, f"unknown variable {missing}")
            edges.append((a, b))
        else:
            raise ModelParseError(line_number, f"unknown directive {kind!r}")

    return TreeModel(tuple(variables), tuple(edges))


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
    for i, term in enumerate(ledger.latent_edge_corrections):
        lines.append(f"correction.latent_edge.{i}={term.amount}")
    for i, term in enumerate(ledger.observed_cut_corrections):
        lines.append(f"correction.observed_cut.{i}={term.amount}")
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


class _Failure(Exception):
    """A usage error or a refused command: exit code 1 after its error line."""


def _error(message: object, code: int) -> int:
    """Write ``error: <message>`` to stderr as one line; return ``code``."""
    # Line breaks print as \n (the "." keeps a trailing one a split point),
    # and a message past 150 characters is cut, so no token is echoed whole.
    text = "\\n".join(f"{message}.".splitlines())[:-1]
    text = text if len(text) <= 150 else text[:147] + "..."
    print(f"error: {text}", file=sys.stderr)
    return code


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep exit codes under our control
        raise _Failure(message)


def _integer(check):
    """An argparse type: an int that ``check`` accepts, or its ValueError's text."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        try:
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return parse


def _int_at_least(low: int):
    def check(value: int) -> None:
        if value < low:
            raise ValueError(f"must be >= {low}, got {value}")

    return _integer(check)


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
        type=_integer(check_trials),
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
    try:  # a NUL or a lone surrogate in the path is a ValueError, not an OSError
        data = Path(path_text).read_bytes().removeprefix(b"\xef\xbb\xbf")  # UTF-8 BOM
    except ValueError as exc:
        raise _Failure(f"cannot read {path_text!r}: {exc}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_number = data.count(b"\n", 0, exc.start) + 1
        message = f"not UTF-8 text (byte {data[exc.start]:#04x})"
        raise ModelParseError(line_number, message) from None
    return parse_model(text)


def _run_dims(args, model: TreeModel) -> int:
    result = effective_dimension(model, RankPolicy(trials=args.trials, seed=args.seed))
    what = "ds"  # de <= ds: it prints when ds does
    try:  # str() refuses an int past sys.get_int_max_str_digits()
        lines = [f"ds={result.standard_dimension}", f"de={result.effective_dimension}"]
        what = "a report value"
        if args.report:
            lines = report_lines(model, result, args.seed, args.trials)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise _Failure(f"{what} has more than {limit} digits to print") from None
    code = 0
    if args.oracle:
        # The error: line goes first, as main writes it out: main holds stdout.
        try:
            oracle_de = oracle_effective_dimension(
                model, trials=args.trials, seed=args.seed
            )
        except CellLimitError as exc:
            code = _error(exc, 2)
        else:
            lines.insert(2, f"oracle_de={oracle_de}")
            if oracle_de != result.effective_dimension:
                pair = f"({result.effective_dimension} vs {oracle_de})"
                code = _error(f"decomposition and oracle disagree {pair}", 3)
    print("\n".join(lines))
    return code


def _run_score(args, model: TreeModel) -> int:
    ds = standard_dimension(model)
    de = args.de
    if de is None:
        de = effective_dimension(model, RankPolicy()).effective_dimension
    elif de > ds:
        raise _Failure(f"--de {de} exceeds the standard dimension {ds}")
    score_input = ScoreInput(loglik=args.loglik, sample_size=args.n)
    try:
        scores = bic(score_input, ds), bice(score_input, de)
    except OverflowError as exc:
        raise _Failure(f"score out of float range: {exc}") from None
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
    argv = list(argv)  # argparse reads a token like -1.5e4 as an option name
    for i in reversed(range(len(argv) - 1)):
        if len(argv[i]) > 2 and "--loglik".startswith(argv[i]):  # or a prefix
            argv[i : i + 2] = [f"--loglik={argv[i + 1]}"]
    commands = {"dims": _run_dims, "score": _run_score, "regularize": _run_regularize}
    try:
        args = _build_parser().parse_args(argv)
        return commands[args.command](args, _load_model(args.model))
    except CellLimitError as exc:
        return _error(exc, 4)
    except (_Failure, OSError, ModelParseError, InvalidModelError) as exc:
        return _error(exc, 1)


def main() -> None:
    # stdout waits for the command's code, which a closed stdout keeps if nonzero
    held, code = io.StringIO(), 1
    try:
        with contextlib.redirect_stdout(held), warnings.catch_warnings():
            warnings.showwarning = lambda m, *_: print(f"warning: {m}", file=sys.stderr)
            code = run(sys.argv[1:])
    except SystemExit as exc:  # argparse exits from inside run after --help
        code = exc.code
    finally:  # what was printed goes out even when run raised
        try:
            print(held.getvalue(), end="", flush=True)
        except BrokenPipeError:
            # Python flushes stdout again at exit: point it at devnull first.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            code = _error("stdout closed before the output was written", code or 1)
    sys.exit(code)
