"""Tree-structured models of observed and latent variables.

A model is an undirected tree whose nodes carry a cardinality and an
observed/latent flag; it is valid by construction, as building one runs
the structural validation.  This module also provides the standard
(parameter-count) dimension of the rooted parameterization, the
latent-cardinality regularity check, and the regularization transform
that shrinks a model without changing the set of joint distributions it
can represent over its observed variables.

Everything here is a pure function of immutable values.  A transform
that changes nothing returns its input object; one that changes
something returns a new model.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from functools import cached_property
from operator import attrgetter
from typing import Optional


class InvalidModelError(ValueError):
    """Raised when variables and edges do not form a valid tree model."""

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


@dataclass(frozen=True)
class TreeModel:
    """An undirected tree of variables.

    Variables are normalized to ascending id order and edges to sorted id
    pairs in sorted order, so models built from the same structure compare
    equal regardless of the order used at construction time.  Variable ids
    are stable across transformations: removed ids are retired, never
    reused.  Construction builds the indexes by id, the adjacency and the
    observed and latent variables once, before validating.
    Construction raises :class:`InvalidModelError`, with every error
    :func:`require_valid` finds, unless the model is a tree with an observed node.
    """

    variables: tuple[Variable, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.variables, key=attrgetter("id")))
        edges = tuple(sorted([(a, b) if a < b else (b, a) for a, b in self.edges]))
        adjacency: dict[int, list[int]] = {v.id: [] for v in ordered}
        for a, b in edges:  # sorted (low, high) pairs: every list fills ascending
            adjacency.setdefault(a, []).append(b)
            adjacency.setdefault(b, []).append(a)
        self.__dict__.update(  # a frozen dataclass: set past __setattr__
            variables=ordered,
            edges=edges,
            _by_id={v.id: v for v in ordered},
            _adjacency={vid: tuple(nbrs) for vid, nbrs in adjacency.items()},
            observed_variables=tuple([v for v in ordered if v.observed]),
            latent_variables=tuple([v for v in ordered if not v.observed]),
        )
        require_valid(self)

    @cached_property
    def _rooting(self):
        """Parent map, child lists and breadth-first order from the lowest id."""
        adjacency, root = self._adjacency, self.variables[0].id
        order, parents, children = [root], {}, {root: list(adjacency[root])}
        for vid in order:  # order grows as the search reaches new nodes
            order.extend(children[vid])
            for c in children[vid]:
                parents[c] = vid
                children[c] = [x for x in adjacency[c] if x != vid]
        return parents, children, order

    def variable(self, var_id: int) -> Variable:
        try:
            return self._by_id[var_id]
        except KeyError:
            raise KeyError(f"unknown variable id {var_id}") from None

    def neighbors(self, var_id: int) -> tuple[int, ...]:
        """Neighbor ids in ascending order."""
        return self._adjacency.get(var_id, ())


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


def require_valid(model: TreeModel) -> None:
    """Raise :class:`InvalidModelError` with every violated structural invariant."""
    if not model.variables:
        raise InvalidModelError(["model has no variables"])
    errors: list[str] = []

    seen_ids: set[int] = set()
    seen_names: set[str] = set()
    for var in model.variables:
        if type(var.cardinality) is not int:  # not isinstance: a bool is no count
            errors.append(f"variable {var.name!r}: cardinality must be an int")
        elif var.cardinality < 1:
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

    if not model.observed_variables:
        errors.append("no observed variable")
    if errors:
        raise InvalidModelError(errors)


def standard_dimension(model: TreeModel) -> int:
    """Count the free parameters of the rooted conditional-table form.

    Rooted anywhere, the count is ``(|root| - 1)`` plus
    ``|parent| * (|child| - 1)`` over all parent-child edges.  Every node
    is the parent of all but one of its edges, the root of all of them,
    so the count needs no root: the sum of ``|a| * |b|`` over the edges
    minus the sum of ``|v| * (deg v - 1)`` over the nodes, minus one.
    """
    by_id, adjacency = model._by_id, model._adjacency
    pairs = sum(by_id[a].cardinality * by_id[b].cardinality for a, b in model.edges)
    shared = sum(
        v.cardinality * (len(adjacency.get(v.id, ())) - 1) for v in model.variables
    )
    return pairs - shared - 1


def capped_product(values, cap: int) -> int:
    """Product of ``values`` (each >= 1), exact up to ``cap``, else above it."""
    product = 1
    for x in values:
        product *= x
        if product > cap:
            break
    return product


def neighbor_bound(card: int, cards) -> int:
    """``prod(cards) // max(cards)`` if at most ``card``, else above ``card``.

    A prefix's bound never falls as a neighbor joins, so ``cards`` (each >= 1)
    is read only until the bound passes ``card``; two neighbors are exact.
    """
    product = top = 1
    for x in cards:
        product, top = product * x, x if x > top else top
        if product > card * top:
            break
    return product // top


def check_regular(model: TreeModel) -> list[RegularityViolation]:
    """Report every latent node whose cardinality exceeds its bound.

    A latent node with neighbors of cardinalities ``c_1..c_k`` may be at
    most ``prod(c_i) / max(c_i)``; when it has exactly two neighbors and
    at least one of them is latent the inequality must be strict.
    Observed nodes are never checked.
    """
    by_id, adjacency = model._by_id, model._adjacency
    violations: list[RegularityViolation] = []
    for var in model.latent_variables:  # every one has a neighbor: n >= 2
        nbrs = [by_id[x] for x in adjacency[var.id]]
        bound = neighbor_bound(var.cardinality, (x.cardinality for x in nbrs))
        if var.cardinality > bound:
            violations.append(RegularityViolation(var.id, "bound", bound))
        elif var.cardinality == bound and len(nbrs) == 2:
            if not (nbrs[0].observed and nbrs[1].observed):
                violations.append(RegularityViolation(var.id, "strict", bound))
    return violations


def _cards(ids: list[int], var: dict[int, Variable]):
    """Cardinalities of the ``ids`` still in ``var`` with two or more states;
    each stale id met, gone or down to one state for good, is swapped out."""
    i = 0
    while i < len(ids):
        x = var.get(ids[i])
        if x is None or x.cardinality == 1:
            ids[i] = ids[-1]
            ids.pop()
        else:
            yield x.cardinality
            i += 1


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

    Two rewrite rules act on latent nodes, one step at a time, and the
    lowest-id node that acts goes first:

    * a latent node with exactly two neighbors whose cardinality is at
      least the smaller neighbor cardinality is removed and its two
      neighbors joined by a new edge;
    * otherwise, a latent node whose cardinality exceeds the neighbor
      bound has its cardinality reduced to that bound.

    The first rule also removes latents that :func:`check_regular` accepts,
    such as a binary one between observed nodes of cardinalities 2 and 3,
    so a regular model can come back rewritten.  The output represents
    exactly the same set of observed-variable joint distributions as the
    input and never has more parameters.

    Cost: a model that needs no step costs one read-only scan and is
    returned as is.  Otherwise candidate ids wait in a min-heap, each pop
    costs O(log n) plus the neighbors :func:`neighbor_bound` reads, and
    one model is built at the end.  From the first step on, a bound reads
    a list per node (``wide``) that drops each id it meets gone or of one
    state, so a latent hub re-checked after each step reads few of them.
    """
    var, nbrs = model._by_id, model._adjacency  # copied at the first step
    wide: dict[int, list[int]] = {}  # then each node's neighbors, pruned as read
    heap = [v.id for v in model.latent_variables]  # ascending ids: a heap
    log: list[RegularizationStep] = []
    while heap:
        vid = heapq.heappop(heap)
        if vid not in var:
            continue
        v, touched = var[vid], nbrs[vid]  # no step edits the set of vid itself
        cards = _cards(wide[vid], var) if log else (var[x].cardinality for x in touched)
        bound = neighbor_bound(v.cardinality, cards)
        if v.cardinality < bound or v.cardinality == bound and len(touched) != 2:
            continue  # neither rule acts
        if not log:
            var, nbrs = dict(var), {x: set(others) for x, others in nbrs.items()}
            wide = {x: list(others) for x, others in nbrs.items()}
        if len(touched) == 2:  # two neighbors: the bound is the smaller one
            a, b = sorted(touched)
            for x, y in ((a, b), (b, a)):
                nbrs[x] ^= {vid, y}  # x swaps vid for y
                wide[x].append(y)
            del var[vid], nbrs[vid]
            step = RegularizationStep("remove", vid, v.name, joined=(a, b))
        else:
            var[vid] = replace(v, cardinality=bound)
            step = RegularizationStep("reduce", vid, v.name, None, v.cardinality, bound)
        log.append(step)
        # Only these can start to act (a reduced node stays at its bound),
        # so the first pop that acts is always the lowest-id acting node.
        for x in touched:
            if not var[x].observed:
                heapq.heappush(heap, x)
    if not log:
        return model, ()
    edges = tuple((a, b) for a, others in nbrs.items() for b in others if a < b)
    return TreeModel(tuple(var.values()), edges), tuple(log)
