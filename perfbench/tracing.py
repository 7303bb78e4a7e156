"""Per-layer spans recorded from outside the package.

A traced pass replaces the public functions of each ``treedim`` layer with
wrappers that open a span, call the original and close the span.  A span's
self time is its duration minus the time covered by the spans it caused.
Spans are folded into per-name totals as they close, so a pass with
millions of calls keeps constant memory.

A function is wrapped in the module that binds it: ``exact_rank`` bound
in ``rank`` counts as ``rank.exact_rank`` and bound in ``oracle`` as
``oracle.exact_rank``.  A function that a later version renames or
removes is reported as missing; the pass still runs.  Every binding is
restored when the traced block ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from fractions import Fraction

# (metric base, home module, attribute path, wrap every binding of it)
# With the last field False only the home module's binding is wrapped.
SPECS = (
    ("model.require_valid", "model", "require_valid", True),
    ("model.neighbors", "model", "TreeModel.neighbors", True),
    ("model.variable", "model", "TreeModel.variable", True),
    ("model.standard_dimension", "model", "standard_dimension", True),
    ("model.check_regular", "model", "check_regular", True),
    ("model.regularize", "model", "regularize", True),
    ("decompose.prune_latent_leaves", "decompose", "prune_latent_leaves", True),
    ("decompose.split_at_observed", "decompose", "split_at_observed", True),
    ("decompose.decompose_hlc", "decompose", "decompose_hlc", True),
    ("decompose.effective_dimension", "decompose", "effective_dimension", True),
    ("rank.lc_rank_trials", "rank", "lc_rank_trials", True),
    ("rank.sample_lc_point", "rank", "sample_lc_point", True),
    ("rank.lc_jacobian_at", "rank", "lc_jacobian_at", True),
    ("rank.exact_rank", "rank", "exact_rank", False),
    ("oracle", "oracle", "oracle_effective_dimension", True),
    ("oracle.sample_full_point", "oracle", "sample_full_point", True),
    ("oracle.observed_joint_jacobian", "oracle", "observed_joint_jacobian", True),
    ("oracle.exact_rank", "oracle", "exact_rank", False),
    ("iface.parse_model", "iface", "parse_model", True),
    ("iface.report_lines", "iface", "report_lines", True),
)

# Counters taken from a span's result: metric -> (span base, unit).
COUNTERS = {
    "decompose.components": ("decompose.effective_dimension", "count"),
    "rank.trial_disagreements": ("rank.lc_rank_trials", "count"),
    "rank.jacobian_rows": ("rank.lc_jacobian_at", "count"),
    "rank.entry_bits_max": ("rank.lc_jacobian_at", "bits"),
    "rank.useful_row_frac": ("rank.exact_rank", "ratio"),
    "oracle.jacobian_cols": ("oracle.observed_joint_jacobian", "count"),
}

COUNT_SPAN = "trace.count"


class Tracer:
    """Stack of open spans folded into per-name self time and call count."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._stack: list[list] = []  # [name, start, time covered by children]
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.broken: set[str] = set()  # counters whose result had an unknown shape

    def enter(self, name: str) -> None:
        self._stack.append([name, self._clock(), 0.0])

    def exit(self) -> None:
        name, start, covered = self._stack.pop()
        span = self._clock() - start
        self.self_s[name] = self.self_s.get(name, 0.0) + span - covered
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][2] += span

    def add(self, counter: str, amount) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def raise_to(self, counter: str, value) -> None:
        self.counts[counter] = max(self.counts.get(counter, value), value)


def _entry_bits(x) -> int:
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    return int(x).bit_length()


def _rows(matrix):
    return getattr(matrix, "entries", matrix)


def _count_effective_dimension(tracer: Tracer, result) -> None:
    tracer.add("decompose.components", len(result.ledger.lc_components))


def _count_lc_rank_trials(tracer: Tracer, ranks) -> None:
    tracer.add("rank.trial_disagreements", int(len(set(ranks)) > 1))


def _count_lc_jacobian(tracer: Tracer, matrix) -> None:
    rows = _rows(matrix)
    tracer.add("rank.jacobian_rows", len(rows))
    bits = max((_entry_bits(x) for row in rows for x in row), default=0)
    tracer.raise_to("rank.entry_bits_max", bits)


def _count_exact_rank(tracer: Tracer, rank) -> None:
    tracer.add("rank.ranks_found", int(rank))


def _count_oracle_jacobian(tracer: Tracer, matrix) -> None:
    cols = getattr(matrix, "n_cols", None)
    if cols is None:
        rows = _rows(matrix)
        cols = len(rows[0]) if rows else 0
    tracer.add("oracle.jacobian_cols", cols)


_COUNT_FUNCTIONS = {
    "decompose.effective_dimension": _count_effective_dimension,
    "rank.lc_rank_trials": _count_lc_rank_trials,
    "rank.lc_jacobian_at": _count_lc_jacobian,
    "rank.exact_rank": _count_exact_rank,
    "oracle.observed_joint_jacobian": _count_oracle_jacobian,
}


def _wrap(tracer: Tracer, name: str, fn):
    count = _COUNT_FUNCTIONS.get(name)
    counters = [metric for metric, (base, _) in COUNTERS.items() if base == name]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if count is not None:
            # Inspecting the result is tracing cost, kept out of the caller's self time.
            tracer.enter(COUNT_SPAN)
            try:
                count(tracer, result)
            except (AttributeError, TypeError, ValueError, IndexError):
                tracer.broken.update(counters)
            finally:
                tracer.exit()
        return result

    return wrapper


def _resolve(module, path: str):
    """Owner (module or class) and attribute name of a dotted path."""
    *parents, attr = path.split(".")
    owner = module
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def _package_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "treedim" or name.startswith("treedim."))
    ]


@contextlib.contextmanager
def traced(tracer: Tracer, specs=SPECS):
    """Install the span wrappers; yields the metric bases that were not found."""
    patches = []  # (owner, attribute, original binding)
    missing = []
    try:
        for base, home, path, everywhere in specs:
            try:
                module = importlib.import_module(f"treedim.{home}")
                owner, attr = _resolve(module, path)
                original = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                missing.append(base)
                continue
            targets = [owner]
            if everywhere and owner is module:
                targets += [
                    m for m in _package_modules()
                    if m is not owner and vars(m).get(attr) is original
                ]
            wrapper = _wrap(tracer, base, original)
            for target in targets:
                patches.append((target, attr, vars(target)[attr]))
                setattr(target, attr, wrapper)
        yield missing
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def metric_names(specs=SPECS) -> list[str]:
    """Every metric ``layer_metrics`` reports when no function is missing."""
    names = [f"{base}.{kind}" for base, _, _, _ in specs for kind in ("calls", "self_s")]
    return names + [f"{COUNT_SPAN}.self_s", *COUNTERS, "trace.wall_s", "trace.unattributed_s"]


def layer_metrics(tracer: Tracer, wall_s: float, missing, specs=SPECS) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit).

    Metrics of a missing function are absent.  ``trace.unattributed_s`` is
    the traced wall time that no span covers, so every ``.self_s`` plus it
    adds up to ``trace.wall_s``.
    """
    metrics = {}
    for base, _, _, _ in specs:
        if base in missing:
            continue
        metrics[f"{base}.calls"] = (tracer.calls.get(base, 0), "count")
        metrics[f"{base}.self_s"] = (tracer.self_s.get(base, 0.0), "s")
    metrics[f"{COUNT_SPAN}.self_s"] = (tracer.self_s.get(COUNT_SPAN, 0.0), "s")

    for name, (base, unit) in COUNTERS.items():
        if base in missing or name in tracer.broken:
            continue
        if name == "rank.useful_row_frac":
            if "rank.lc_jacobian_at" in missing or "rank.jacobian_rows" in tracer.broken:
                continue
            rows = tracer.counts.get("rank.jacobian_rows", 0)
            found = tracer.counts.get("rank.ranks_found", 0)
            metrics[name] = (found / rows if rows else 0.0, unit)
        else:
            metrics[name] = (tracer.counts.get(name, 0), unit)

    metrics["trace.wall_s"] = (wall_s, "s")
    metrics["trace.unattributed_s"] = (wall_s - sum(tracer.self_s.values()), "s")
    return metrics
