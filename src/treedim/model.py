"""Tree-structured models of observed and latent variables.

A model is an undirected tree whose nodes carry a cardinality and an
observed/latent flag.  This module provides structural validation, the
standard (parameter-count) dimension of the rooted parameterization, the
latent-cardinality regularity check, and the regularization transform
that shrinks a model without changing the set of joint distributions it
can represent over its observed variables.

Everything here is a pure function of immutable values.  A transform
that changes nothing returns its input object; one that changes
something returns a new model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional


class InvalidModelError(ValueError):
    """Raised when an operation requires a structurally valid model."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


@dataclass(frozen=True)
class Variable:
    """One node of a tree model."""

    id: int
    name: str
    cardinality: int
    observed: bool

    @property
    def latent(self) -> bool:
        return not self.observed


@dataclass(frozen=True)
class TreeModel:
    """An undirected tree of variables.

    Variables are normalized to ascending id order and edges to sorted id
    pairs in sorted order, so models built from the same structure compare
    equal regardless of the order used at construction time.  Variable ids
    are stable across transformations: removed ids are retired, never
    reused.  Lookups by id go through an index built on first use.
    """

    variables: tuple[Variable, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        ordered = sorted(self.variables, key=lambda v: v.id)
        object.__setattr__(self, "variables", tuple(ordered))
        normalized = sorted((min(a, b), max(a, b)) for a, b in self.edges)
        object.__setattr__(self, "edges", tuple(normalized))

    @cached_property
    def _by_id(self) -> dict[int, Variable]:
        # reversed: with a duplicate id (an invalid model) the first one wins
        return {v.id: v for v in reversed(self.variables)}

    @cached_property
    def _adjacency(self) -> dict[int, tuple[int, ...]]:
        # Edges are sorted (low, high) pairs, so every list fills ascending.
        out: dict[int, list[int]] = {}
        for a, b in self.edges:
            out.setdefault(a, []).append(b)
            out.setdefault(b, []).append(a)
        return {vid: tuple(nbrs) for vid, nbrs in out.items()}

    @cached_property
    def _rooting(self):
        """Parent map, child lists and breadth-first order from the lowest id."""
        order, parents, children = [self.variables[0].id], {}, {}
        for node in order:  # order grows as the search reaches new nodes
            children[node] = [c for c in self.neighbors(node) if c != parents.get(node)]
            parents.update(dict.fromkeys(children[node], node))
            order.extend(children[node])
        return parents, children, order

    @cached_property
    def _errors(self) -> tuple[str, ...]:
        # The model is immutable, so one validation serves every check.
        return tuple(validate(self))

    def variable(self, var_id: int) -> Variable:
        try:
            return self._by_id[var_id]
        except KeyError:
            raise KeyError(f"unknown variable id {var_id}") from None

    def neighbors(self, var_id: int) -> tuple[int, ...]:
        """Neighbor ids in ascending order."""
        return self._adjacency.get(var_id, ())

    def degree(self, var_id: int) -> int:
        return len(self.neighbors(var_id))

    @cached_property
    def observed_variables(self) -> tuple[Variable, ...]:
        return tuple(v for v in self.variables if v.observed)

    @cached_property
    def latent_variables(self) -> tuple[Variable, ...]:
        return tuple(v for v in self.variables if v.latent)


@dataclass(frozen=True)
class RegularityViolation:
    """A latent node whose cardinality breaks the neighbor-product bound.

    ``allowed_max`` is the product of the node's neighbor cardinalities
    divided by the largest one (always an exact integer).  ``kind`` is
    ``"bound"`` when the cardinality exceeds that value and ``"strict"``
    when it merely equals it but the node has exactly two neighbors, one
    of them latent, where strict inequality is required.
    """

    variable_id: int
    kind: str
    allowed_max: int


def validate(model: TreeModel) -> list[str]:
    """Return every violated structural invariant (empty when valid)."""
    errors: list[str] = []
    if not model.variables:
        return ["model has no variables"]

    seen_ids: set[int] = set()
    seen_names: set[str] = set()
    for var in model.variables:
        if var.cardinality < 1:
            errors.append(f"variable {var.name!r}: cardinality must be >= 1")
        if var.id in seen_ids:
            errors.append(f"duplicate variable id {var.id}")
        seen_ids.add(var.id)
        if var.name in seen_names:
            errors.append(f"duplicate variable name {var.name!r}")
        seen_names.add(var.name)

    usable, last = 0, None  # edges are sorted, so an edge's repeats are adjacent
    for a, b in model.edges:
        if a == b:
            errors.append(f"self-loop at variable id {a}")
            continue
        if a not in seen_ids or b not in seen_ids:
            errors.append(f"edge ({a}, {b}) references an unknown variable id")
            continue
        if (a, b) == last:
            errors.append(f"duplicate edge ({a}, {b})")
        usable += (a, b) != last
        last = (a, b)

    n = len(seen_ids)
    if usable != n - 1:
        errors.append(f"not a tree: {usable} distinct edges for {n} variables")
    reached = {min(seen_ids)}
    stack = list(reached)
    while stack:
        for other in model._adjacency.get(stack.pop(), ()):
            if other in seen_ids and other not in reached:
                reached.add(other)
                stack.append(other)
    if len(reached) < n:
        errors.append(f"disconnected: only {len(reached)} of {n} variables reachable")

    if not any(v.observed for v in model.variables):
        errors.append("no observed variable")
    return errors


def require_valid(model: TreeModel) -> None:
    if model._errors:
        raise InvalidModelError(list(model._errors))


def standard_dimension(model: TreeModel) -> int:
    """Count the free parameters of the rooted conditional-table form.

    Rooted anywhere, the count is ``(|root| - 1)`` plus
    ``|parent| * (|child| - 1)`` over all parent-child edges.  Every node
    is the parent of all but one of its edges, the root of all of them,
    so the count needs no root: the sum of ``|a| * |b|`` over the edges
    minus the sum of ``|v| * (deg v - 1)`` over the nodes, minus one.
    """
    require_valid(model)
    by_id, adjacency = model._by_id, model._adjacency
    pairs = sum(by_id[a].cardinality * by_id[b].cardinality for a, b in model.edges)
    shared = sum(
        v.cardinality * (len(adjacency.get(v.id, ())) - 1) for v in model.variables
    )
    return pairs - shared - 1


def check_regular(model: TreeModel) -> list[RegularityViolation]:
    """Report every latent node whose cardinality exceeds its bound.

    A latent node with neighbors of cardinalities ``c_1..c_k`` may be at
    most ``prod(c_i) / max(c_i)``; when it has exactly two neighbors and
    at least one of them is latent the inequality must be strict.
    Observed nodes are never checked.
    """
    require_valid(model)
    violations: list[RegularityViolation] = []
    for var in model.latent_variables:
        nbrs = [model.variable(x) for x in model.neighbors(var.id)]
        if not nbrs:
            continue
        cards = [x.cardinality for x in nbrs]
        bound = math.prod(cards) // max(cards)  # exact: max(cards) divides
        if var.cardinality > bound:
            violations.append(RegularityViolation(var.id, "bound", bound))
        elif var.cardinality == bound and len(nbrs) == 2:
            if any(x.latent for x in nbrs):
                violations.append(RegularityViolation(var.id, "strict", bound))
    return violations


@dataclass(frozen=True)
class RegularizationStep:
    """One applied transformation: a node removal or a cardinality cut."""

    kind: str  # "remove" | "reduce"
    variable_id: int
    variable_name: str
    joined: Optional[tuple[int, int]] = None
    old_cardinality: Optional[int] = None
    new_cardinality: Optional[int] = None


def regularize(model: TreeModel) -> tuple[TreeModel, tuple[RegularizationStep, ...]]:
    """Shrink a model until neither rewrite rule below applies.

    Two rewrite rules are applied repeatedly, scanning latent nodes in
    ascending id and restarting the scan after every change:

    * a latent node with exactly two neighbors whose cardinality is at
      least the smaller neighbor cardinality is removed and its two
      neighbors joined by a new edge;
    * otherwise, a latent node whose cardinality exceeds the neighbor
      bound has its cardinality reduced to that bound.

    The first rule also removes latents that :func:`check_regular` accepts,
    such as a binary one between observed nodes of cardinalities 2 and 3,
    so a regular model can come back rewritten.  The output represents
    exactly the same set of observed-variable joint distributions as the
    input and never has more parameters; a model that neither rule
    changes is returned as is.
    """
    require_valid(model)
    log: list[RegularizationStep] = []
    while True:
        for var in model.latent_variables:
            nbrs = model.neighbors(var.id)
            if not nbrs:
                continue
            cards = [model.variable(x).cardinality for x in nbrs]
            if len(nbrs) == 2 and var.cardinality >= min(cards):
                model = TreeModel(
                    tuple(v for v in model.variables if v is not var),
                    tuple(e for e in model.edges if var.id not in e) + (nbrs,),
                )
                log.append(RegularizationStep("remove", var.id, var.name, joined=nbrs))
                break
            bound = math.prod(cards) // max(cards)
            if var.cardinality > bound:
                model = TreeModel(
                    tuple(
                        replace(v, cardinality=bound) if v is var else v
                        for v in model.variables
                    ),
                    model.edges,
                )
                log.append(
                    RegularizationStep(
                        "reduce",
                        var.id,
                        var.name,
                        old_cardinality=var.cardinality,
                        new_cardinality=bound,
                    )
                )
                break
        else:
            return model, tuple(log)
