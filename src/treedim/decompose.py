"""Reduction of a tree model to latent-class components plus corrections.

The effective dimension of a tree model is assembled from parts that
are each cheap to rank, all read off one pruned, regularized tree:

* latent leaves contribute nothing to the observed joint and are pruned;
* regularizing removes or shrinks latent nodes without changing the
  observed joints the model can represent;
* cutting at an observed internal node of degree d would over-count
  the node's own distribution d - 1 times, which the observed-cut
  correction subtracts back out, and each observed-observed edge is a
  latent-free part contributing its standard dimension;
* each latent node becomes one latent-class component over its
  neighbors, and each latent-latent edge contributes a shared-parameter
  correction equal to the size of the pair's joint table minus one.

``effective_dimension`` runs the whole pipeline and keeps an audit trail
of every component and :class:`Term` in a :class:`DecompositionLedger`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .model import (
    RegularizationStep,
    TreeModel,
    Variable,
    regularize,
    standard_dimension,
)
from .rank import DEFAULT_TRIALS, check_trials, derive_seed, lc_rank_trials


@dataclass(frozen=True)
class LcComponent:
    """A single latent variable with its neighbors treated as observed."""

    latent_id: int
    latent_cardinality: int
    neighbors: tuple[tuple[int, int], ...]  # (variable id, cardinality)

    @cached_property
    def star(self) -> TreeModel:
        """The component as a tree model: the latent at id 0, the root, and
        neighbor ``i`` observed at id ``i + 1``, a leaf."""
        leaves = [
            Variable(i, f"Y{i}", card, True)
            for i, (_, card) in enumerate(self.neighbors, 1)
        ]
        latent = Variable(0, "Z", self.latent_cardinality, False)
        return TreeModel((latent, *leaves), tuple((0, v.id) for v in leaves))


@dataclass(frozen=True)
class Term:
    """One ledger entry: the variable ids it stands for and its amount."""

    ids: tuple[int, ...]
    amount: int


@dataclass(frozen=True)
class DecompositionLedger:
    """The effective dimension's terms: the component ranks, plus each
    latent-free part, minus each correction.  A latent edge (X, Z) takes
    ``|X| * |Z| - 1``; an observed cut at v, of degree d and cardinality
    r, takes ``(d - 1) * (r - 1)``; a latent-free part, an observed-
    observed edge (A, B) or the one variable v of an edgeless model, adds
    ``|A| * |B| - 1`` or ``|v| - 1``."""

    lc_components: tuple[LcComponent, ...]
    latent_edge_corrections: tuple[Term, ...]
    observed_cut_corrections: tuple[Term, ...]
    latent_free_parts: tuple[Term, ...]
    pruned_latent_leaves: tuple[int, ...]
    regularization_log: tuple[RegularizationStep, ...]


@dataclass(frozen=True)
class RankPolicy:
    """Knobs of the randomized component rank computation."""

    trials: int = DEFAULT_TRIALS
    seed: int = 0

    def __post_init__(self):
        check_trials(self.trials)


@dataclass(frozen=True)
class DimensionResult:
    standard_dimension: int
    effective_dimension: int
    ledger: DecompositionLedger
    component_dimensions: tuple[int, ...]
    component_trial_ranks: tuple[tuple[int, ...], ...]


def prune_latent_leaves(model: TreeModel) -> tuple[TreeModel, tuple[int, ...]]:
    """Drop latent leaves until none remain.

    A latent leaf is summed out of the observed joint entirely, so its
    conditional table never moves any observed probability; removing it
    leaves the effective dimension unchanged.  Removal can expose new
    latent leaves, so they go in layers, each in ascending id order: the
    input's latent leaves, then the latents that their removal left
    leaves, and so on.  Cost: a model without latent leaves costs one
    read-only scan and is returned as is; otherwise degree counters find
    each layer, linear in the tree, and one model is built at the end.
    """
    by_id, adjacency = model._by_id, model._adjacency
    layer = [v.id for v in model.latent_variables if len(adjacency[v.id]) <= 1]
    if not layer:
        return model, ()
    degree = {vid: len(others) for vid, others in adjacency.items()}
    removed: list[int] = []
    while layer:
        removed.extend(layer)
        exposed = []
        for vid in layer:
            for x in adjacency[vid]:
                degree[x] -= 1
                if degree[x] == 1 and not by_id[x].observed:
                    exposed.append(x)
        layer = sorted(exposed)
    gone = set(removed)
    variables = tuple(v for v in model.variables if v.id not in gone)
    edges = tuple(e for e in model.edges if gone.isdisjoint(e))
    return TreeModel(variables, edges), tuple(removed)


def split_at_observed(model: TreeModel) -> tuple[tuple[Term, ...], tuple[Term, ...]]:
    """Corrections and latent-free parts of cutting at observed internal nodes.

    Cutting a degree-d observed node of cardinality r into one copy per
    incident edge would over-count its distribution by (d - 1) * (r - 1).
    In a regular tree, a part of the cut tree without latent nodes is one
    observed-observed edge (a, b), with standard dimension |a| * |b| - 1;
    :func:`decompose_hlc` accounts for the parts with latents.  An edgeless
    model is one part: its variable, with cardinality - 1.  Precondition,
    not checked: regular and pruned, as ``regularize`` leaves the output
    of :func:`prune_latent_leaves`.
    """
    by_id, adjacency = model._by_id, model._adjacency
    corrections = tuple(
        Term((v.id,), (len(adjacency[v.id]) - 1) * (v.cardinality - 1))
        for v in model.observed_variables
        if len(adjacency.get(v.id, ())) >= 2
    )
    if not model.edges:
        (var,) = model.variables
        return corrections, (Term((var.id,), var.cardinality - 1),)
    parts = tuple(
        Term((a, b), by_id[a].cardinality * by_id[b].cardinality - 1)
        for a, b in model.edges
        if by_id[a].observed and by_id[b].observed
    )
    return corrections, parts


def decompose_hlc(hlc: TreeModel) -> tuple[tuple[LcComponent, ...], tuple[Term, ...]]:
    """Split a regular tree into latent-class parts.

    Cutting a latent-latent edge separates the tree into two halves that
    share exactly the joint table of the edge's pair, i.e. |X|*|Z| - 1
    parameters; iterating over all such edges isolates every latent node
    together with its full neighbor set.  Not checked: the input is
    regular and pruned, so every intermediate cut stays regular; observed
    nodes may be internal.
    """
    by_id, adjacency = hlc._by_id, hlc._adjacency
    components, corrections = [], []
    for var in hlc.latent_variables:
        nbrs = [by_id[x] for x in adjacency[var.id]]
        neighbors = tuple((x.id, x.cardinality) for x in nbrs)
        components.append(LcComponent(var.id, var.cardinality, neighbors))
        # Latents and neighbors ascend, so each latent-latent edge, taken at
        # its lower end, comes in the model's sorted edge order.
        for x in nbrs:
            if not x.observed and x.id > var.id:
                shared = var.cardinality * x.cardinality - 1
                corrections.append(Term((var.id, x.id), shared))
    return tuple(components), tuple(corrections)


def combine(component_dimensions, ledger: DecompositionLedger) -> int:
    """Assemble the model's effective dimension from its ledger.  Not
    checked: one dimension >= 0 per ledger component, in ledger order."""
    corrections = ledger.latent_edge_corrections + ledger.observed_cut_corrections
    total = sum(component_dimensions) + sum(t.amount for t in ledger.latent_free_parts)
    return total - sum(t.amount for t in corrections)


def effective_dimension(
    model: TreeModel, policy: RankPolicy = RankPolicy()
) -> DimensionResult:
    """Standard and effective dimension of a tree model, with audit trail.

    Pipeline: prune latent leaves, regularize the pruned tree, count its
    observed cuts and observed-observed edges, decompose it into latent-
    class components; rank each component signature once at random
    points of GF(p); combine.
    """
    ds = standard_dimension(model)
    pruned, removed = prune_latent_leaves(model)
    regular, steps = regularize(pruned)
    cut_corrections, free_parts = split_at_observed(regular)
    components, edge_corrections = decompose_hlc(regular)
    ledger = DecompositionLedger(
        lc_components=components,
        latent_edge_corrections=edge_corrections,
        observed_cut_corrections=cut_corrections,
        latent_free_parts=free_parts,
        pruned_latent_leaves=removed,
        regularization_log=steps,
    )

    # Permuting neighbors permutes Jacobian rows and columns, so a rank depends
    # only on the latent cardinality and the sorted neighbor cardinalities.
    by_signature: dict[tuple[int, tuple[int, ...]], tuple[int, ...]] = {}
    trial_ranks = []
    for component in ledger.lc_components:
        cards = tuple(sorted(card for _, card in component.neighbors))
        signature = (component.latent_cardinality, cards)
        if signature not in by_signature:
            canonical = LcComponent(
                component.latent_id,
                component.latent_cardinality,
                tuple(enumerate(cards)),
            )
            seed = derive_seed(policy.seed, "component", *signature)
            by_signature[signature] = lc_rank_trials(canonical, policy.trials, seed)
        trial_ranks.append(by_signature[signature])
    dims = [max(ranks) for ranks in trial_ranks]

    de = combine(dims, ledger)
    return DimensionResult(ds, de, ledger, tuple(dims), tuple(trial_ranks))
