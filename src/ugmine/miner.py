"""Top-t discriminative subgraph search with branch-and-bound pruning.

Because node labels are unique, subgraph isomorphism degenerates to edge-set
inclusion and the classic DFS-code machinery is unnecessary. Enumeration is
instead organized as a reverse-search tree over connected edge sets: every
subgraph has a unique canonical parent (drop the largest edge whose removal
keeps it connected), so each connected subgraph of the union graph is
generated exactly once.

Each child is generated from the universe's incidence index and accepted
by a parent test on edge tuples; only accepted children become Subgraph
objects. At every tree node the expected frequency is computed first. A node
at or below min_sup is never a candidate, so the exact support distributions,
the measure value and the bound are computed only for nodes above it, in one
batch per child list: such a node is offered to a bounded best-t candidate
list, and its subtree is cut when either the expected frequency falls to
min_sup or below (sound by anti-monotonicity) or, for the expectation and
phi-probability measures, the dominating upper bound cannot beat the current
t-th best value.

``SearchStats.nodes_evaluated`` counts every tree node whose expected
frequency was computed, frequent or not; it is not the number of nodes that
got a support distribution.

A feature's measure value and bound are a pure function of its own support
laws: every row of a batch is contracted with the same arithmetic, whatever
rows share the batch. The candidate list keeps the t best features under the
total order (measure desc, fewer edges, lexicographically smaller edge list),
so the mined set is a pure function of the set of evaluated subgraphs,
independent of traversal, batching or insertion order.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass, field, replace

import numpy as np

from .distribution import EXPECTATION, PHI_PROBABILITY, MeasureSpec, _batched_support, _MeasureGrids
from .graphs import CertainGraph, Dataset, Edge, Subgraph, union_graph
from .graphs import _connected as _edges_connected
from .scores import ScoreFunction, envelope_table, score_grid


@dataclass(frozen=True)
class MiningConfig:
    """Parameters of one mining run."""

    t: int
    min_sup: float
    measure: MeasureSpec
    score: ScoreFunction
    max_edges: int | None = None
    frequency_pruning: bool = True
    bound_pruning: bool = True
    keep_joints: bool = False

    def __post_init__(self) -> None:
        if self.t < 1:
            raise ValueError("t must be >= 1")
        if not (0.0 <= self.min_sup <= 1.0):
            raise ValueError("min_sup must lie in [0, 1]")
        if self.max_edges is not None and self.max_edges < 1:
            raise ValueError("max_edges must be >= 1 when given")


@dataclass(frozen=True)
class MinedFeature:
    """One mined subgraph with its measure value and support summary."""

    subgraph: Subgraph
    measure_value: float
    exp_freq: float
    joint: np.ndarray | None = field(default=None, compare=False)


@dataclass
class SearchStats:
    """Instrumentation of one traversal."""

    nodes_evaluated: int = 0
    frequency_pruned: int = 0
    bound_pruned: int = 0
    # (nodes_evaluated, theta) each time theta, the t-th best measure value,
    # changes; theta is -inf before the first event.
    theta_trace: list[tuple[int, float]] = field(default_factory=list)


@dataclass(frozen=True)
class MiningResult:
    features: tuple[MinedFeature, ...]
    stats: SearchStats


def canonical_parent(sub: Subgraph) -> Subgraph | None:
    """Parent of ``sub`` in the reverse-search tree; None for single edges.

    The parent drops the lexicographically largest edge whose removal leaves
    the edge-induced node set connected. Such an edge always exists: a
    degree-1 node's edge is removable, and a graph without degree-1 nodes
    contains a cycle.
    """
    edges = sub.edges
    if len(edges) == 1:
        return None
    for i in range(len(edges) - 1, -1, -1):
        rest = edges[:i] + edges[i + 1 :]
        if _edges_connected(rest):
            return Subgraph._trusted(rest)
    raise AssertionError(f"no removable edge in connected subgraph {edges}")


def _is_canonical_extension(edges: tuple[Edge, ...], e: Edge) -> bool:
    """True iff the child ``edges`` + ``e`` has canonical parent ``edges``.

    Dropping ``e`` leaves the connected parent, so this holds iff no edge of
    the parent larger than ``e`` can be dropped with the rest staying
    connected; the test walks those edges from the largest down.
    """
    child = edges + (e,)
    for i in range(len(edges) - 1, -1, -1):
        if edges[i] < e:
            break
        rest = child[:i] + child[i + 1 :]
        if len(rest) == 1 or _edges_connected(rest):
            return False
    return True


def children(parent: Subgraph | None, universe: CertainGraph) -> list[Subgraph]:
    """Children of ``parent`` in the reverse-search tree over ``universe``.

    The root (None) owns every single-edge subgraph. Otherwise a child is the
    parent plus one incident universe edge whose canonical parent is exactly
    this parent, in ascending order of that edge; across the whole tree every
    connected subgraph of the universe appears exactly once.
    """
    if parent is None:
        return [Subgraph._trusted((e,)) for e in sorted(universe.edges)]
    edges = parent.edges
    return [
        Subgraph._trusted(tuple(sorted(edges + (e,))))
        for e in universe.extensions(edges)
        if _is_canonical_extension(edges, e)
    ]


@dataclass(slots=True)
class _Node:
    sub: Subgraph
    contain: np.ndarray
    exp_freq: float
    # Computed only above min_sup; below it the value is nan, the bound +inf
    # (never bound-pruned) and the distributions None.
    value: float = math.nan
    bound: float = math.inf
    pos_dist: np.ndarray | None = None
    neg_dist: np.ndarray | None = None


class _CandidateList:
    """Bounded best-t buffer ordered by (measure desc, fewer edges, lex edges)."""

    def __init__(self, t: int) -> None:
        self.t = t
        self.entries: list[tuple[tuple, _Node]] = []

    def theta(self) -> float:
        """Measure value of the current worst kept feature; -inf until full."""
        if len(self.entries) < self.t:
            return -math.inf
        return self.entries[-1][1].value

    def offer(self, node: _Node) -> None:
        key = (-node.value, len(node.sub.edges), node.sub.edges)
        if len(self.entries) == self.t and key > self.entries[-1][0]:
            return
        insort(self.entries, (key, node))
        if len(self.entries) > self.t:
            self.entries.pop()

    def export(self, keep_joints: bool) -> tuple[MinedFeature, ...]:
        out = []
        for _, node in self.entries:
            joint = np.outer(node.pos_dist, node.neg_dist) if keep_joints else None
            out.append(MinedFeature(node.sub, node.value, node.exp_freq, joint))
        return tuple(out)


class _Evaluator:
    def __init__(self, dataset: Dataset, cfg: MiningConfig, with_bounds: bool) -> None:
        self.pos_cols = np.array(dataset.pos_indices, dtype=np.intp)
        self.neg_cols = np.array(dataset.neg_indices, dtype=np.intp)
        self.min_sup = cfg.min_sup
        self.with_bounds = with_bounds
        n_pos, n_neg = len(self.pos_cols), len(self.neg_cols)
        envelope = envelope_table(cfg.score, n_pos, n_neg) if with_bounds else None
        self.grids = _MeasureGrids(cfg.measure, score_grid(cfg.score, n_pos, n_neg), envelope)

    def evaluate(self, subs: list[Subgraph], contain: np.ndarray) -> list[_Node]:
        """Nodes for ``subs``, whose containment rows are ``contain``."""
        exp_freq = contain.mean(axis=1)
        nodes = [_Node(*args) for args in zip(subs, contain, exp_freq.tolist())]
        live = np.flatnonzero(exp_freq > self.min_sup)
        if len(live):
            rows = contain[live]
            pos = _batched_support(rows[:, self.pos_cols])
            neg = _batched_support(rows[:, self.neg_cols])
            values = self.grids.values(pos, neg)
            bounds = self.grids.bounds(pos, neg) if self.with_bounds else None
            for j, i in enumerate(live):
                node = nodes[i]
                node.value = float(values[j])
                if bounds is not None:
                    node.bound = float(bounds[j])
                node.pos_dist, node.neg_dist = pos[j], neg[j]
        return nodes


def _search(dataset: Dataset, cfg: MiningConfig) -> MiningResult:
    if dataset.n_pos < 1 or dataset.n_neg < 1:
        raise ValueError("mining requires at least one graph of each class")
    stats = SearchStats()
    cands = _CandidateList(cfg.t)
    universe = union_graph(dataset)
    edges = sorted(universe.edges)
    if not edges:
        return MiningResult((), stats)

    col = {e: j for j, e in enumerate(edges)}
    probs = np.zeros((len(dataset), len(edges)))
    for i, g in enumerate(dataset.graphs):
        for e, p in g.edges.items():
            probs[i, col[e]] = p

    bound_active = cfg.bound_pruning and cfg.measure.kind in (EXPECTATION, PHI_PROBABILITY)
    evaluator = _Evaluator(dataset, cfg, bound_active)

    stack = evaluator.evaluate(children(None, universe), probs.T.copy())
    stack.reverse()

    theta = -math.inf
    while stack:
        node = stack.pop()
        stats.nodes_evaluated += 1
        # Features at or below min_sup are never candidates; the pruning
        # switch only controls whether their subtrees are still explored.
        if node.exp_freq > cfg.min_sup:
            cands.offer(node)
            if cands.theta() != theta:
                theta = cands.theta()
                stats.theta_trace.append((stats.nodes_evaluated, theta))

        if cfg.frequency_pruning and node.exp_freq <= cfg.min_sup:
            stats.frequency_pruned += 1
            continue
        if bound_active and node.bound < theta:
            stats.bound_pruned += 1
            continue
        if cfg.max_edges is not None and len(node.sub.edges) >= cfg.max_edges:
            continue

        kids = children(node.sub, universe)
        if kids:
            own = set(node.sub.edges)
            added = [e for k in kids for e in k.edges if e not in own]
            contain = node.contain * probs[:, [col[e] for e in added]].T
            child_nodes = evaluator.evaluate(kids, contain)
            stack.extend(reversed(child_nodes))

    return MiningResult(cands.export(cfg.keep_joints), stats)


def mine(dataset: Dataset, cfg: MiningConfig) -> MiningResult:
    """Mine the top-t features of the dataset under the given configuration."""
    return _search(dataset, cfg)


def mine_exhaustive(dataset: Dataset, cfg: MiningConfig) -> MiningResult:
    """Reference run with both pruning switches forced off; same output contract."""
    return _search(dataset, replace(cfg, frequency_pruning=False, bound_pruning=False))
