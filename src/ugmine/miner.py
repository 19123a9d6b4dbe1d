"""Top-t discriminative subgraph search with branch-and-bound pruning.

Because node labels are unique, subgraph isomorphism degenerates to edge-set
inclusion and the classic DFS-code machinery is unnecessary: the search
walks the reverse-search tree of connected edge sets that ``graphs`` owns
(``children``). This module owns the walk and its store.

Every frequency filter keeps the rows above one floor: min_sup in the pruned
search (``mine``), and -1, below every mean, in the exhaustive reference
(``mine_exhaustive``), which so runs the same code and builds and expands
every node. A child at or below min_sup is never a candidate and, since
expected frequency is anti-monotone, neither is any of its descendants. A
child is first counted: the number of graphs in which its added edge and
its parent are both nonzero, from one bitset per universe edge. Its
containment row and expected frequency are computed only if that count,
over the number of graphs, exceeds the floor; otherwise its mean is at most
that ratio (see ``_may_be_frequent``). The exact support distributions, the
measure value and the bound are computed only for children above min_sup.
Such a child is offered to a bounded best-t candidate list when it is
popped, and ``mine`` cuts its subtree when, for the expectation and
phi-probability measures, the dominating upper bound, raised past rounding
error, is below the current t-th best value θ.

The same floor picks the store, the rows the walk reads. Only the edges
nonzero in more than floor of the graphs get probability rows: an edge
nonzero in k of G graphs has a mean of at most fl(k / G). Of these, the
store keeps the frequent roots, those whose mean is above the floor. A
containment row holding any other edge is at most that edge's row
entrywise, so the edge lies in no frequent subgraph; its bitset is empty,
so the count test drops every child that adds it and no product reads a
row for it.

Child lists are evaluated in look-ahead batches. When a popped node is to be
expanded and its list is not yet evaluated, the next stack nodes that would
be expanded under the current θ (bound at least θ, below max_edges) join it,
up to ``_WINDOW`` nodes and until the batch holds ``_CELLS`` containment cells
(rows × graphs), counting every child row, computed or not. The batch takes
one count test, one containment product, one mean, one support DP for both
classes (``_class_laws``; more than one only for a batch of many rows) and
one ``values`` and one ``bounds`` call. Each node keeps its own (child
count, child nodes) and its list is counted only when that node is
expanded, so the pop order, the printed counts and θ's trace are those of
evaluating one list per expansion. This rests on three facts.
A child list is a pure function of its parent, whatever shares its batch
(see the last paragraph). The pop order does not depend on
what was evaluated ahead. θ only grows, so a node below θ now is cut when it
is popped; a node that passes now but is cut later only wastes its list.
The children of a batch hold rows of one copy of its rows above the floor,
or of the batch product itself when the floor drops none, so the nodes
waiting on the stack pin no dropped row; the roots hold views of the store.
A kept candidate holds a copy of its row. The search drops every support
law once the batch's values and bounds are read, and export computes none:
the mined features share their rows, and the first read of a feature's
law computes the laws of them all, in one ``_class_laws`` call.

A search reads its dataset through the dataset's edge table
(``graphs._EdgeTable``), which ``parse_dataset`` fills as it parses and
every ``Dataset.subset`` shares; no graph's edge dict is read. One count
pass (``graphs._edge_counts``) gives ``union_graph`` and the store their
edges, and only the store's rows are read: a shallow search holds no
edge-by-graph matrix (3 of the 6670 edges of adhd-like seed 0 get rows at
min_sup 0.2). The bitsets are read off the store's rows after the root
batch; they and the rows live only as long as the search.

``SearchStats.nodes_evaluated`` counts every child of an expanded node,
built or not, when its parent is expanded; a list evaluated ahead for a
node that is then cut is not counted (the traced ``children`` calls and
their output do include it). A ``theta_trace`` index is that count when θ
changed, so it advances by whole child lists.

A feature's expected frequency, support laws, measure value and bound do not
depend on the rows that share its batch: the mean is taken row by row, the
support DP's folding or skipping of a graph whose entry in a row is zero is
an exact identity for that row, and every row is contracted with the same
arithmetic. The candidate list keeps the t best features under the total
order (measure desc, fewer edges, lexicographically smaller edge list), so
the mined set is a pure function of the set of evaluated subgraphs,
independent of traversal, batching or insertion order.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, insort
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Real

import numpy as np

from .distribution import MeasureSpec, _batched_support, _MeasureGrids
from .graphs import (
    Dataset,
    Subgraph,
    _ChildList,
    _edge_counts,
    _edge_rows,
    _nonnegative_int,
    canonical_parent,  # bound here so that a tracer can wrap it by this name
    children,
    union_graph,
)
from .scores import ScoreFunction, score_grid


# A look-ahead batch takes the child lists of at most _WINDOW nodes, the popped
# one included, and stops growing once its product holds _CELLS cells.
_WINDOW = 64
_CELLS = 200_000


@dataclass(frozen=True)
class MiningConfig:
    """Parameters of one mining run."""

    t: int
    min_sup: float
    measure: MeasureSpec
    score: ScoreFunction
    max_edges: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", _nonnegative_int(self.t, "t"))
        if self.t < 1:
            raise ValueError("t must be >= 1")
        min_sup = self.min_sup
        if isinstance(min_sup, bool) or not isinstance(min_sup, Real) or not 0.0 <= min_sup <= 1.0:
            raise ValueError(f"min_sup must be a number in [0, 1], got {min_sup!r}")
        if not isinstance(self.measure, MeasureSpec):
            raise ValueError(f"measure must be a MeasureSpec, got {self.measure!r}")
        if not isinstance(self.score, ScoreFunction):
            raise ValueError(f"score must be a ScoreFunction, got {self.score!r}")
        if self.max_edges is not None:
            object.__setattr__(self, "max_edges", _nonnegative_int(self.max_edges, "max_edges"))
            if self.max_edges < 1:
                raise ValueError("max_edges must be >= 1 when given")


def _class_laws(
    rows: np.ndarray, pos_cols: np.ndarray, neg_cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The laws of the positive and of the negative support count of each
    containment row, of shapes (k, n_pos + 1) and (k, n_neg + 1).

    Each chunk of rows makes one support DP call: its positive entries and
    its negative entries are stacked, zero-padded to the larger class.
    Folding a graph whose entry in a row is 0 leaves that row's law
    unchanged, bit for bit, and every row still folds its own nonzero
    entries in the same order, so each law is that of a call on its class
    alone; the padded cells above a class's size stay 0 and are cut off.
    The DP is row-stable, so chunking changes no bit either. A chunk holds
    at most ``_CELLS`` // 8 stacked entries (or one row, when a row is
    wider), a quarter of a one-class call on a full batch, so that folding
    both classes at once does not raise the memory of a full batch.
    """
    n_pos, n_neg = len(pos_cols), len(neg_cols)
    width = max(n_pos, n_neg)
    pos, neg = np.empty((len(rows), n_pos + 1)), np.empty((len(rows), n_neg + 1))
    step = max(1, _CELLS // (16 * width))
    for start in range(0, len(rows), step):
        part = rows[start : start + step]
        k = len(part)
        stacked = np.zeros((2 * k, width))
        stacked[:k, :n_pos] = part[:, pos_cols]
        stacked[k:, :n_neg] = part[:, neg_cols]
        laws = _batched_support(stacked)
        pos[start : start + k] = laws[:k, : n_pos + 1]
        neg[start : start + k] = laws[k:, : n_neg + 1]
    return pos, neg


class _KeptLaws:
    """The support laws of the kept features of one search, computed by one
    ``_class_laws`` call when the first of them is read; their containment
    rows are dropped then."""

    def __init__(self, rows: np.ndarray, pos_cols: np.ndarray, neg_cols: np.ndarray) -> None:
        self.rows: np.ndarray | None = rows
        self.cols = (pos_cols, neg_cols)

    @cached_property
    def laws(self) -> tuple[np.ndarray, np.ndarray]:
        rows, self.rows = self.rows, None
        return _class_laws(rows, *self.cols)


@dataclass(frozen=True)
class MinedFeature:
    """One mined subgraph with its measure value and support summary.

    ``pos_dist`` and ``neg_dist`` are the exact laws of its positive and
    negative support counts. ``mine`` does not compute them: the first read
    of any of them computes those of every feature of the result at once.
    """

    subgraph: Subgraph
    measure_value: float
    exp_freq: float
    _laws: _KeptLaws = field(compare=False, repr=False)
    _index: int = field(compare=False, repr=False)

    @property
    def pos_dist(self) -> np.ndarray:
        return self._laws.laws[0][self._index]

    @property
    def neg_dist(self) -> np.ndarray:
        return self._laws.laws[1][self._index]

    @property
    def joint(self) -> np.ndarray:
        """Joint law of (positive, negative) support; the classes are independent."""
        return np.outer(self.pos_dist, self.neg_dist)


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


@dataclass(slots=True)
class _Node:
    sub: Subgraph
    contain: np.ndarray
    exp_freq: float
    # Computed only above min_sup, the bound only when ``mine`` runs a bounded
    # measure; otherwise nan and +inf (never bound-pruned). A node holds no
    # support laws: the kept features' are computed again when one is read
    # (see ``_CandidateList.export``).
    value: float = math.nan
    bound: float = math.inf
    # (child count, child nodes last child first) once the child list has
    # been evaluated; it is counted only when this node is expanded
    kids: tuple[int, list[_Node]] | None = None


class _CandidateList:
    """Bounded best-t buffer ordered by (measure desc, fewer edges, lex edges).

    A kept node holds a copy of its containment row, so it does not pin the
    arrays of the batch that evaluated it; ``export`` hands the rows to the
    features, whose laws are computed from them when first read.
    """

    def __init__(self, t: int) -> None:
        self.t = t
        self.entries: list[tuple[tuple, _Node]] = []

    def theta(self) -> float:
        """Measure value of the current worst kept node; -inf until full."""
        if len(self.entries) < self.t:
            return -math.inf
        return self.entries[-1][1].value

    def offer(self, node: _Node) -> None:
        key = (-node.value, len(node.sub.edges), node.sub.edges)
        if len(self.entries) == self.t and key > self.entries[-1][0]:
            return
        kept = _Node(node.sub, node.contain.copy(), node.exp_freq, node.value)
        insort(self.entries, (key, kept))
        if len(self.entries) > self.t:
            self.entries.pop()

    def export(self, pos_cols: np.ndarray, neg_cols: np.ndarray) -> tuple[MinedFeature, ...]:
        """The kept nodes, best first, as features whose laws are those of
        their ``pos_cols`` and ``neg_cols`` entries: the laws the search
        computed, as the DP is row-stable. No law is computed here."""
        if not self.entries:
            return ()
        laws = _KeptLaws(np.array([node.contain for _, node in self.entries]), pos_cols, neg_cols)
        return tuple(
            MinedFeature(node.sub, node.value, node.exp_freq, laws, i)
            for i, (_, node) in enumerate(self.entries)
        )


def _nonzero_words(rows: np.ndarray) -> np.ndarray:
    """Bitset of the graphs where each row of ``rows`` is nonzero, as 64-bit words."""
    packed = np.packbits(rows > 0, axis=1)
    words = np.zeros((len(rows), -(-rows.shape[1] // 64) * 8), dtype=np.uint8)
    words[:, : packed.shape[1]] = packed
    return words.view(np.uint64)


def _may_be_frequent(
    parents: np.ndarray, owner: np.ndarray, edges: np.ndarray, floor: float
) -> np.ndarray:
    """The children whose containment row may have a mean above ``floor``.

    Child r is the parent row ``parents[owner[r]]`` times an edge row that is
    nonzero in the graphs of the bitset ``edges[r]`` (see ``_nonzero_words``).
    A row nonzero in k of its G entries, each at most 1, sums to at most k
    and has a mean of at most fl(k / G), since rounding is monotone. So a
    child that shares k graphs with its parent is kept iff k / G > floor,
    and no child dropped here is above the floor.
    """
    shared = np.bitwise_count(edges & _nonzero_words(parents)[owner]).sum(axis=1)
    return np.flatnonzero(shared / parents.shape[1] > floor)


def _search(dataset: Dataset, cfg: MiningConfig, prune: bool) -> MiningResult:
    if dataset.n_pos < 1 or dataset.n_neg < 1:
        raise ValueError("mining requires at least one graph of each class")
    stats = SearchStats()
    cands = _CandidateList(cfg.t)
    counts = _edge_counts(dataset)
    universe = union_graph(dataset, counts)
    if not universe.edges:
        return MiningResult((), stats)

    n_graphs = len(dataset)
    n_edges = len(universe.edges)
    floor = cfg.min_sup if prune else -1.0  # -1, below every mean, keeps every row
    # the edges nonzero, by count (one per graph), in more than floor of the graphs
    dense = np.flatnonzero(counts[counts > 0] / n_graphs > floor)
    # one row of per-graph containment probabilities per dense edge, read at
    # its edge-table column (the union edges are the table edges with a count)
    probs = _edge_rows(dataset, np.flatnonzero(counts)[dense])
    # the store: the rows of the frequent roots
    frequent = np.flatnonzero(probs.mean(axis=1) > floor)
    if len(frequent) < len(dense):
        dense, probs = dense[frequent], probs[frequent]

    pos_cols = np.array(dataset.pos_indices, dtype=np.intp)
    neg_cols = np.array(dataset.neg_indices, dtype=np.intp)
    grids = _MeasureGrids(cfg.measure, score_grid(cfg.score, len(pos_cols), len(neg_cols)))
    bounded = prune and grids.bounded
    cap = cfg.max_edges or math.inf  # max_edges is >= 1 when given

    def evaluate(
        lists: list[_ChildList], contain: np.ndarray, index: np.ndarray
    ) -> Iterator[tuple[int, list[_Node]]]:
        """Nodes of the child lists ``lists``, list after list; yields (child
        count, nodes last child first) per list.

        Row r of ``contain`` is the containment row of child ``index[r]`` of
        the lists' concatenation, ``index`` ascending; a child it leaves out,
        like a row dropped here, is at or below the floor.
        """
        exp_freq = contain.mean(axis=1)
        kept = np.flatnonzero(exp_freq > floor)
        if len(kept) < len(index):
            contain, index, exp_freq = contain[kept], index[kept], exp_freq[kept]
        live = np.flatnonzero(exp_freq > cfg.min_sup)
        if len(live):
            rows = contain if len(live) == len(contain) else contain[live]
            pos, neg = _class_laws(rows, pos_cols, neg_cols)
            values = grids.values(pos, neg).tolist()
            bounds = grids.bounds(pos, neg).tolist() if bounded else [math.inf] * len(live)
        at = index.tolist()  # the child index of each row
        exp_freq = exp_freq.tolist()
        j = k = start = 0  # next frequent row; next row; first child of the list
        for kids in lists:
            nodes = []
            end = start + len(kids)
            stop = bisect_left(at, end, k)
            for r in range(k, stop):
                node = _Node(kids[at[r] - start], contain[r], exp_freq[r])
                if exp_freq[r] > cfg.min_sup:
                    node.value, node.bound = values[j], bounds[j]
                    j += 1
                nodes.append(node)
            nodes.reverse()
            yield len(kids), nodes
            start, k = end, stop

    def look_ahead(node: _Node) -> None:
        """Evaluate the child lists of ``node`` and of the next stack nodes
        that would be expanded under the current theta, in one batch.

        Only the children that share more than floor of the graphs with their
        parent are multiplied out (see ``_may_be_frequent``).
        """
        batch, lists, n_rows = [], [], 0
        for other in itertools.chain((node,), itertools.islice(reversed(stack), _WINDOW - 1)):
            if other.kids is not None or other.bound < theta or len(other.sub.edges) >= cap:
                continue
            kids = children(other.sub, universe)
            batch.append(other)
            lists.append(kids)
            n_rows += len(kids)
            if n_rows * n_graphs >= _CELLS:
                break
        owner = np.repeat(np.arange(len(batch)), [len(kids) for kids in lists])
        added = np.concatenate([kids.added for kids in lists])
        parents = np.array([parent.contain for parent in batch])
        index = _may_be_frequent(parents, owner, nonzero[added], floor)
        owner = owner[index]
        # multiplied in place, parent by parent: a gathered copy of the parent
        # rows would double the memory of a batch whose rows are all computed
        contain = probs[slot[added[index]]]
        ends = np.searchsorted(owner, np.arange(1, len(batch) + 1)).tolist()
        for parent, start, end in zip(batch, [0] + ends, ends):
            contain[start:end] *= parent.contain
        for parent, kids in zip(batch, evaluate(lists, contain, index)):
            parent.kids = kids

    ((count, stack),) = evaluate([children(None, universe)], probs, dense)
    # built after the root batch, which is the peak of a shallow search
    slot = np.zeros(n_edges, dtype=np.intp)  # the row of each store edge
    slot[dense] = np.arange(len(dense))
    # the graphs where each universe edge has nonzero probability; none for an
    # edge outside the store
    nonzero = np.zeros((n_edges, -(-n_graphs // 64)), dtype=np.uint64)
    nonzero[dense] = _nonzero_words(probs)
    stats.nodes_evaluated, stats.frequency_pruned = count, count - len(stack)
    theta = -math.inf
    while stack:
        node = stack.pop()
        # only the exhaustive search holds nodes at or below min_sup
        if node.exp_freq > cfg.min_sup:
            cands.offer(node)
            if cands.theta() != theta:
                theta = cands.theta()
                stats.theta_trace.append((stats.nodes_evaluated, theta))

        if node.bound < theta:
            stats.bound_pruned += 1
            continue
        if len(node.sub.edges) >= cap:
            continue

        if node.kids is None:
            look_ahead(node)
        (count, kids), node.kids = node.kids, None
        stats.nodes_evaluated += count
        stats.frequency_pruned += count - len(kids)
        stack += kids

    return MiningResult(cands.export(pos_cols, neg_cols), stats)


def mine(dataset: Dataset, cfg: MiningConfig) -> MiningResult:
    """Mine the top-t features of the dataset under the given configuration."""
    return _search(dataset, cfg, prune=True)


def mine_exhaustive(dataset: Dataset, cfg: MiningConfig) -> MiningResult:
    """Reference run that prunes nothing; same output contract."""
    return _search(dataset, cfg, prune=False)
