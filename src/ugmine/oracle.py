"""Brute-force possible-worlds reference implementation.

Enumerates every deterministic instantiation of an uncertain dataset and
derives distributions and measures by direct summation. Exponentially slow by
construction; it exists as ground truth for the dynamic-programming route on
tiny inputs and is kept deliberately independent of it.

A feature's worlds are walked once, by ``oracle_joint``, which sums their
probabilities into support-pair cells; ``oracle_measure`` scores each cell of
that joint rather than each world.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .distribution import (
    EXPECTATION,
    PHI_PROBABILITY,
    MeasureSpec,
    distribution_from_pairs,
    exp_of_pairs,
    measure_from_distribution,
    phi_pr_of_pairs,
)
from .graphs import CertainGraph, Dataset, Edge, Subgraph, UncertainGraph
from .scores import ScoreFunction, eval_score

DEFAULT_MAX_WORLDS = 1 << 20


class WorldCountError(ValueError):
    """Raised when a dataset has more possible worlds than the stated budget."""


@dataclass(frozen=True)
class World:
    """One deterministic instantiation of every graph in a dataset."""

    graphs: tuple[CertainGraph, ...]
    probability: float


def world_count(dataset: Dataset) -> int:
    count = 1
    for g in dataset.graphs:
        count *= 2 ** len(g.edges)
    return count


def _check_budget(dataset: Dataset, max_worlds: int) -> None:
    count = world_count(dataset)
    if count > max_worlds:
        # A power of two; past 2^64 its decimal form is unreadable (and past
        # about 2^14000 longer than Python converts to a string).
        shown = count if count.bit_length() <= 65 else f"2^{count.bit_length() - 1}"
        raise WorldCountError(
            f"dataset has {shown} possible worlds, exceeding the budget of {max_worlds}"
        )


def _graph_worlds(graph: UncertainGraph) -> list[tuple[tuple[Edge, ...], float]]:
    """All (edge subset, probability) instantiations of one uncertain graph.

    Subsets of probability zero (possible only when an edge has p = 1) are not
    worlds and are skipped.
    """
    edges = sorted(graph.edges)
    probs = [graph.edges[e] for e in edges]
    out = []
    for mask in range(2 ** len(edges)):
        present = []
        p = 1.0
        for j, e in enumerate(edges):
            if mask >> j & 1:
                present.append(e)
                p *= probs[j]
            else:
                p *= 1.0 - probs[j]
        if p > 0.0:
            out.append((tuple(present), p))
    return out


def enumerate_worlds(dataset: Dataset, max_worlds: int = DEFAULT_MAX_WORLDS) -> Iterator[World]:
    """Yield every world of the dataset exactly once, with its probability."""
    _check_budget(dataset, max_worlds)
    per_graph = [_graph_worlds(g) for g in dataset.graphs]
    n = dataset.num_nodes
    for combo in itertools.product(*per_graph):
        p = 1.0
        graphs = []
        for edges, gp in combo:
            p *= gp
            graphs.append(CertainGraph(n, frozenset(edges)))
        yield World(tuple(graphs), p)


def oracle_joint(g: Subgraph, dataset: Dataset, max_worlds: int = DEFAULT_MAX_WORLDS) -> np.ndarray:
    """Joint support-pair law obtained by summing over every world.

    Cell (a, b) is the total probability of the worlds in which ``g`` occurs
    in a positive and b negative graphs. This is the oracle's one walk over
    a feature's worlds; ``oracle_measure`` reads its cells.
    """
    _check_budget(dataset, max_worlds)
    need = set(g.edges)
    per_graph = []
    for graph, label in zip(dataset.graphs, dataset.labels):
        found = (1, 0) if label == 1 else (0, 1)
        per_graph.append(
            [(p, found if need.issubset(edges) else (0, 0)) for edges, p in _graph_worlds(graph)]
        )
    joint = np.zeros((dataset.n_pos + 1, dataset.n_neg + 1))
    for combo in itertools.product(*per_graph):
        p = 1.0
        a = b = 0
        for gp, (da, db) in combo:
            p *= gp
            a += da
            b += db
        joint[a, b] += p
    return joint


def _measure_of_joint(joint: np.ndarray, measure: MeasureSpec, score: ScoreFunction) -> float:
    """``oracle_measure`` of the feature whose ``oracle_joint`` is ``joint``."""
    n_pos, n_neg = joint.shape[0] - 1, joint.shape[1] - 1
    if n_pos < 1 or n_neg < 1:
        raise ValueError("both classes must be nonempty")
    # one score per support pair that some world reaches
    pairs = [
        (eval_score(score, a, b, n_pos, n_neg), p)
        for a, row in enumerate(joint.tolist())
        for b, p in enumerate(row)
        if p > 0.0
    ]
    # Expectation and phi-probability consume the raw cells, median and mode
    # the grouped atoms -- mirroring the dynamic-programming route.
    if measure.kind == EXPECTATION:
        return exp_of_pairs(pairs)
    if measure.kind == PHI_PROBABILITY:
        assert measure.phi is not None
        return phi_pr_of_pairs(pairs, measure.phi)
    return measure_from_distribution(distribution_from_pairs(pairs), measure)


def oracle_measure(
    g: Subgraph,
    dataset: Dataset,
    measure: MeasureSpec,
    score: ScoreFunction,
    max_worlds: int = DEFAULT_MAX_WORLDS,
) -> float:
    """Measure of the world-level score multiset, read off ``oracle_joint``.

    Every world in cell (a, b) of the joint scores the same, so the score is
    evaluated once per cell and weighted by the cell's summed probability.
    Uses the same grouping, tie, and fallback conventions as the
    dynamic-programming route; only the distribution construction differs.
    """
    return _measure_of_joint(oracle_joint(g, dataset, max_worlds), measure, score)
