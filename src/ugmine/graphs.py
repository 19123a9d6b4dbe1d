"""Uncertain and certain graphs over a shared, integer-labeled node universe.

All graphs in a dataset share one node set {0, ..., num_nodes-1}, with
num_nodes at most 2^31 (``_MAX_NODES``); node labels are the indices
themselves. Because labels are unique, a subgraph has at most one embedding
in any graph, so containment reduces to edge-set inclusion.

A dataset's edges are held once, in one flat table (``_EdgeTable``), which is
what mining, evaluation, featurizing and ``serialize_dataset`` read.
``parse_dataset`` decodes each graph's edge list straight into arrays, and
``synth.generate`` draws its graphs as arrays; both hand them to one builder
(``_table_dataset``), which checks every entry at once and fills the table.
The builder alone finds a bad entry; ``_check_edges`` words the error of the
lowest bad graph, as listed, with ``_edge_fault``, the rules for one edge
that the constructors use too. A graph the builder returns holds no edge
dict until its ``edges`` is first read (by the oracle or by
``containment_probability``). Other modules read the table only through
this module's functions of a dataset.

This module also owns the reverse-search tree (Avis & Fukuda, 1996) that
``mine`` walks and that orders ``featurize``'s products: a subgraph's
canonical parent drops its largest edge whose removal keeps it connected
(``_last_removable``). Children are the universe edges at the parent,
ascending, whose column exceeds a threshold found once per attach point by
the same scan (``_threshold``); a one-edge parent's own edge is every
extension's threshold, as both its ends are leaves.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from bisect import bisect_left
from collections.abc import Container, Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

Edge = tuple[int, int]


class DatasetFormatError(ValueError):
    """Raised when dataset JSON is malformed or violates an invariant."""


def make_edge(u: int, v: int) -> Edge:
    """Canonical undirected edge: endpoints ordered so that u < v."""
    if u == v:
        raise ValueError(f"self-loop edge ({u}, {v})")
    return (u, v) if u < v else (v, u)


def _nonnegative_int(value, name: str) -> int:
    """``value`` as an ``int``, if it is a nonnegative integer (a bool is not);
    ``name`` names it in the error."""
    try:
        count = -1 if isinstance(value, bool) else operator.index(value)
    except TypeError:
        count = -1
    if count < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
    return count


# the most nodes a graph may have: labels fit int32, and edge keys int64
_MAX_NODES = 2**31


def _node_count(value) -> int:
    """``value`` as a number of nodes: a nonnegative integer, at most ``_MAX_NODES``."""
    count = _nonnegative_int(value, "num_nodes")
    if count > _MAX_NODES:
        raise ValueError(f"num_nodes must be at most {_MAX_NODES}, got {value!r}")
    return count


def _edge_fault(u, v, p, num_nodes: int, seen: Container[Edge] = ()) -> str | None:
    """Why ``(u, v)``, listed either way round, with probability ``p`` is no
    edge on ``num_nodes`` nodes besides the edges ``seen``, or None."""
    # exact type tests: bool subclasses int, but serializes as true/false
    if type(u) is not int or type(v) is not int:
        return "endpoints must be integers"
    if u == v:
        return f"self-loop ({u}, {v})"
    if type(p) is not float and (not isinstance(p, (int, float)) or isinstance(p, bool)):
        return "probability must be a number"
    if not (0.0 < p <= 1.0):  # NaN fails too
        try:
            p = float(p)
        except OverflowError:  # an integer beyond the float range
            p = math.inf if p > 0 else -math.inf
        return f"probability {p} out of range (0, 1]"
    if not (0 <= u < num_nodes and 0 <= v < num_nodes):
        return f"endpoints ({u}, {v}) outside [0, {num_nodes})"
    if seen and (min(u, v), max(u, v)) in seen:
        return f"duplicate edge ({min(u, v)}, {max(u, v)})"
    return None


@dataclass(frozen=True)
class UncertainGraph:
    """Graph whose edges exist independently with probability in (0, 1].

    ``edges`` maps canonical edges to existence probabilities. The mapping is
    copied at construction and must not be mutated afterwards. Endpoints must
    be ``int`` and probabilities ``int`` or ``float``, as in the JSON format;
    a bool is neither.

    A graph returned by ``parse_dataset`` holds no mapping at first: its
    ``edges`` is built from the graph's row of the dataset's edge table when
    first read, with the edges in the order the input listed them.
    """

    num_nodes: int
    edges: Mapping[Edge, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", dict(self.edges))
        object.__setattr__(self, "num_nodes", _node_count(self.num_nodes))
        for (u, v), p in self.edges.items():
            fault = _edge_fault(u, v, p, self.num_nodes)
            if fault or u > v:
                raise ValueError(f"uncertain graph: edge {(u, v)!r}: {fault or 'not ascending'}")

    @classmethod
    def _row_of(cls, num_nodes: int, table: _EdgeTable, row: int) -> "UncertainGraph":
        """Graph ``row`` of ``table``, whose entries are already checked."""
        graph = object.__new__(cls)
        object.__setattr__(graph, "num_nodes", num_nodes)
        object.__setattr__(graph, "_row", (table, row))
        return graph

    def __getattr__(self, name: str):
        # reached only for an unset attribute: a parsed graph's first ``edges`` read
        source = self.__dict__.get("_row")
        if name != "edges" or source is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        edges = source[0].graph_edges(source[1])
        object.__setattr__(self, "edges", edges)
        return edges


@dataclass(frozen=True)
class CertainGraph:
    """Deterministic undirected graph; one possible world of an uncertain graph."""

    num_nodes: int
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", frozenset(self.edges))
        object.__setattr__(self, "num_nodes", _node_count(self.num_nodes))
        for u, v in self.edges:
            fault = _edge_fault(u, v, 1.0, self.num_nodes)
            if fault or u > v:
                raise ValueError(f"certain graph: edge {(u, v)!r}: {fault or 'not ascending'}")

    @classmethod
    def _trusted(cls, num_nodes: int, edges: list[Edge], ends: np.ndarray) -> "CertainGraph":
        """Graph of ``edges``, already canonical, in range and ascending, whose
        endpoints are the rows of ``ends``."""
        graph = object.__new__(cls)
        object.__setattr__(graph, "num_nodes", num_nodes)
        object.__setattr__(graph, "edges", frozenset(edges))
        graph.__dict__["columns"] = EdgeColumns(edges, ends)
        return graph

    @cached_property
    def columns(self) -> EdgeColumns:
        """This graph's edges as columns, with an incidence index; built once."""
        return EdgeColumns(sorted(self.edges))

    def extensions(self, edges: Iterable[Edge]) -> list[Edge]:
        """Edges of this graph touching the node set of ``edges`` but not in it, ascending."""
        own = set(edges)
        columns = self.columns
        nodes = {n for e in own for n in e}
        return sorted({columns.edges[j] for n in nodes for j in columns.incident[n].tolist()} - own)


def _endpoints(edges: list[Edge]) -> np.ndarray:
    """The endpoints of ``edges``, one row per edge."""
    return np.array(list(itertools.chain.from_iterable(edges)), np.intp).reshape(-1, 2)


class EdgeColumns:
    """A graph's edges numbered 0..E-1 in ascending edge order.

    Comparing two columns compares their edges. ``incident`` holds the
    columns of each non-isolated node, ascending.
    """

    def __init__(self, edges: list[Edge], ends: np.ndarray | None = None) -> None:
        """Index ``edges``, which must be canonical and ascending.

        ``ends`` holds their endpoints, one row per edge, when the caller
        has them as an array already.
        """
        self.edges = edges
        self.column = dict(zip(edges, range(len(edges))))
        if ends is None:
            ends = _endpoints(edges)
        # Node n's edges (y, n) with y < n precede its edges (n, x), so
        # listing the v-ends before the u-ends and sorting stably by node
        # keeps each node's columns ascending; entry k of ``ends`` belongs
        # to column k mod E.
        ends = np.concatenate([ends[:, 1], ends[:, 0]])
        order = np.argsort(ends, kind="stable")
        nodes, starts = np.unique(ends[order], return_index=True)
        self.incident = dict(zip(nodes.tolist(), np.split(order % len(edges), starts[1:])))


def _connected(edges: Iterable[Edge]) -> bool:
    """True when the edge-induced node set forms one connected component."""
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if not adj:
        return False
    start = next(iter(adj))
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for nb in adj[node]:
            if nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    return len(seen) == len(adj)


@dataclass(frozen=True)
class Subgraph:
    """Connected subgraph feature in canonical form.

    Canonical form: edges sorted ascending by (u, v) with u < v, no
    duplicates, nonempty, and the edge-induced node set connected. Endpoints
    must be ``int``, as in ``CertainGraph``; a bool is none.
    """

    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if not self.edges:
            raise ValueError("subgraph must contain at least one edge")
        if list(self.edges) != sorted(set(self.edges)):
            raise ValueError("subgraph edges must be sorted and duplicate-free")
        for u, v in self.edges:
            # exact type tests: bool subclasses int
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"subgraph edge ({u!r}, {v!r}): endpoints must be integers")
            if not (0 <= u < v):
                raise ValueError(f"subgraph edge ({u}, {v}) not canonical")
        if not _connected(self.edges):
            raise ValueError("subgraph edge set is not connected")

    @classmethod
    def _trusted(cls, edges: tuple[Edge, ...]) -> "Subgraph":
        """Wrap edges already known to be in canonical form, skipping validation."""
        sub = object.__new__(cls)
        object.__setattr__(sub, "edges", edges)
        return sub

    @classmethod
    def from_edges(cls, pairs: Iterable[tuple[int, int]]) -> "Subgraph":
        """Build a subgraph from unordered endpoint pairs, canonicalizing them."""
        canon = sorted({make_edge(u, v) for u, v in pairs})
        return cls(tuple(canon))

    @property
    def nodes(self) -> frozenset[int]:
        return frozenset(n for e in self.edges for n in e)

    @cached_property
    def _chain(self) -> tuple[Edge, ...]:
        """The edges in the order the reverse-search tree adds them; built once."""
        parent = canonical_parent(self)
        if parent is None:
            return self.edges
        return parent._chain + tuple(set(self.edges) - set(parent.edges))

    def __len__(self) -> int:
        return len(self.edges)


def _last_removable(edges: tuple[Edge, ...], extra: tuple[Edge, ...] = ()) -> int:
    """Index of the largest edge of ``edges``, which are ascending, whose
    removal from ``edges`` + ``extra`` leaves the rest connected; -1 when
    no edge of ``edges`` is removable."""
    whole = edges + extra
    for i in range(len(edges) - 1, -1, -1):
        if _connected(whole[:i] + whole[i + 1 :]):
            return i
    return -1


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
    i = _last_removable(edges)
    if i < 0:
        raise AssertionError(f"no removable edge in connected subgraph {edges}")
    return Subgraph._trusted(edges[:i] + edges[i + 1 :])


def _threshold(columns: EdgeColumns, edges: tuple[Edge, ...], e: Edge) -> int:
    """Column of the largest edge of ``edges`` removable from ``edges`` + ``e``, or -1."""
    i = _last_removable(edges, (e,))
    return columns.column[edges[i]] if i >= 0 else -1


class _ChildList(Sequence):
    """Children of one parent, held as the columns of their added edges.

    ``added`` is ascending; a child's Subgraph is built only when it is read.
    """

    def __init__(self, parent: tuple[Edge, ...], added: np.ndarray, columns: EdgeColumns) -> None:
        self.parent = parent
        self.added = added
        self.columns = columns

    def __len__(self) -> int:
        return len(self.added)

    def __getitem__(self, i: int) -> Subgraph:
        e = self.columns.edges[self.added[i]]
        return Subgraph._trusted(tuple(sorted(self.parent + (e,))))


def children(parent: Subgraph | None, universe: CertainGraph) -> _ChildList:
    """Children of ``parent`` in the reverse-search tree over ``universe``.

    The root (None) owns every single-edge subgraph. Otherwise a child is the
    parent plus one incident universe edge e whose canonical parent is exactly
    this parent, in ascending order of e; across the whole tree every
    connected subgraph of the universe appears exactly once.

    Dropping e leaves the connected parent, so e is canonical iff it is larger
    than every parent edge removable from parent + e. Which parent edges are
    removable depends on e only through where it attaches: its one endpoint
    in the parent for a pendant edge, both endpoints for a chord. So there is
    one threshold per attach node and per chord, and the test is a comparison
    of edge columns.
    """
    columns = universe.columns
    if parent is None:
        return _ChildList((), np.arange(len(columns.edges)), columns)
    edges = parent.edges
    if len(edges) == 1:
        # both ends are leaves, so every extension is pendant with the parent
        # edge as its threshold, and the parent edge is the only shared column.
        # The edges kept at u are (u, y) and those kept at v are (x, v) or
        # (v, y) with x > u, so the concatenation stays ascending.
        ((u, v),) = edges
        near = np.concatenate([columns.incident[u], columns.incident[v]])
        return _ChildList(edges, near[near > columns.column[edges[0]]], columns)
    nodes = sorted(parent.nodes)
    incident = [columns.incident[a] for a in nodes]
    near = np.concatenate(incident)
    # a pendant edge's threshold is its attach node's; -1 stands for its new node
    per_node = [_threshold(columns, edges, (a, -1)) for a in nodes]
    threshold = np.repeat(per_node, [len(js) for js in incident])
    order = near.argsort()
    near, threshold = near[order], threshold[order]
    # a column listed twice joins two parent nodes: a parent edge or a chord;
    # the bar len(columns.edges) rejects the second copy and parent edges
    bar = len(columns.edges)
    own = set(edges)
    for i in np.flatnonzero(near[1:] == near[:-1]).tolist():
        e = columns.edges[near[i]]
        threshold[i] = bar if e in own else _threshold(columns, edges, e)
        threshold[i + 1] = bar
    return _ChildList(edges, near[near > threshold], columns)


@dataclass(frozen=True)
class Dataset:
    """Ordered collection of uncertain graphs with +1/-1 class labels."""

    num_nodes: int
    graphs: tuple[UncertainGraph, ...]
    labels: tuple[int, ...]
    ids: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "graphs", tuple(self.graphs))
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.ids:
            object.__setattr__(self, "ids", tuple(f"g{i}" for i in range(len(self.graphs))))
        else:
            object.__setattr__(self, "ids", tuple(self.ids))
        if len(self.labels) != len(self.graphs):
            raise ValueError("labels and graphs must have equal length")
        if len(self.ids) != len(self.graphs):
            raise ValueError("ids and graphs must have equal length")
        object.__setattr__(self, "num_nodes", _node_count(self.num_nodes))
        for i, y in enumerate(self.labels):
            # exact type tests: a bool or a numpy integer is no JSON number
            if type(y) not in (int, float) or y not in (1, -1):
                raise ValueError(f"graph {i}: label must be +1 or -1, got {y!r}")
        for i, gid in enumerate(self.ids):
            if not isinstance(gid, str):
                raise ValueError(f"graph {i}: id must be a string, got {gid!r}")
        for i, g in enumerate(self.graphs):
            if g.num_nodes != self.num_nodes:
                raise ValueError(
                    f"graph {i}: num_nodes {g.num_nodes} != dataset num_nodes {self.num_nodes}"
                )

    def __len__(self) -> int:
        return len(self.graphs)

    @property
    def pos_indices(self) -> tuple[int, ...]:
        return tuple(i for i, y in enumerate(self.labels) if y == 1)

    @property
    def neg_indices(self) -> tuple[int, ...]:
        return tuple(i for i, y in enumerate(self.labels) if y == -1)

    @property
    def pos(self) -> tuple[UncertainGraph, ...]:
        return tuple(self.graphs[i] for i in self.pos_indices)

    @property
    def neg(self) -> tuple[UncertainGraph, ...]:
        return tuple(self.graphs[i] for i in self.neg_indices)

    @property
    def n_pos(self) -> int:
        return len(self.pos_indices)

    @property
    def n_neg(self) -> int:
        return len(self.neg_indices)

    @cached_property
    def _edge_table(self) -> tuple[_EdgeTable, np.ndarray]:
        """The edge table this dataset reads, and the table row of each of its graphs.

        ``parse_dataset`` fills it as it parses, and a dataset made by
        ``subset`` shares its parent's, so the rows may repeat and come in any
        order. A dataset made from ``UncertainGraph`` objects builds it on
        first use, from their edge dicts.
        """
        ends = _endpoints([e for g in self.graphs for e in g.edges])
        probs = np.array([p for g in self.graphs for p in g.edges.values()], np.float64)
        sizes = [len(g.edges) for g in self.graphs]
        return _EdgeTable(ends[:, 0], ends[:, 1], probs, sizes), np.arange(len(sizes))

    def subset(self, indices: Sequence[int]) -> "Dataset":
        """The graphs at ``indices``, in that order, with their labels and ids.

        The subset shares this dataset's edge table instead of building its own.
        """
        sub = Dataset(
            self.num_nodes,
            tuple(self.graphs[i] for i in indices),
            tuple(self.labels[i] for i in indices),
            tuple(self.ids[i] for i in indices),
        )
        table, rows = self._edge_table
        sub.__dict__["_edge_table"] = (table, rows[np.asarray(indices, dtype=np.intp)])
        return sub


def _ranges(starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The indices of the ranges ``starts[k]:stops[k]``, one range after
    another, and the k of each."""
    sizes = stops - starts
    k = np.repeat(np.arange(len(sizes)), sizes)
    return np.arange(len(k)) + (starts - np.cumsum(sizes) + sizes)[k], k


class _EdgeTable:
    """Every edge entry of a list of graphs, as flat arrays.

    ``edges`` holds the union edges, ascending, and ``ends`` their endpoints,
    one row per edge. Graph r owns entries ``offsets[r]:offsets[r + 1]``, in
    the order its edges were listed; entry k is the edge ``edges[cols[k]]``
    with probability ``probs[k]``.

    ``_edge_counts`` and ``_edge_rows`` read it through one per-edge index,
    built on first use (``_by_column``); ``graph_edges`` and
    ``_listed_probabilities`` read a graph's entries in listed order.

    The one builder takes every entry's canonical endpoints (``lo`` < ``hi``)
    and probability, graph after graph, and the number of entries of each
    graph. ``_table_dataset`` passes the entries it checked, and ``Dataset``
    its graphs' edge dicts.
    """

    def __init__(
        self, lo: np.ndarray, hi: np.ndarray, probs: np.ndarray, sizes: Sequence[int]
    ) -> None:
        # one key per entry; it fits int64, as every label is below _MAX_NODES
        base = int(hi.max()) + 1 if len(hi) else 0
        order = np.argsort(lo * base + hi)
        lo, hi = lo[order], hi[order]
        new = np.ones(len(order), dtype=bool)
        new[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        self.cols = np.empty(len(order), dtype=np.int32)
        self.cols[order] = np.cumsum(new, dtype=np.int32) - 1
        self.ends = np.stack([lo[new], hi[new]], axis=1)
        self.edges: list[Edge] = list(zip(lo[new].tolist(), hi[new].tolist()))
        self.probs = probs
        self.offsets = np.zeros(len(sizes) + 1, dtype=np.intp)
        np.cumsum(sizes, out=self.offsets[1:])

    def graph_edges(self, row: int) -> dict[Edge, float]:
        """Graph ``row``'s edges and their probabilities, in its entries' order."""
        start, stop = self.offsets[row], self.offsets[row + 1]
        keys = map(self.edges.__getitem__, self.cols[start:stop].tolist())
        return dict(zip(keys, self.probs[start:stop].tolist()))

    def _entry_keys(self) -> np.ndarray:
        """One key per entry, ordered by graph, then column: two entries share
        a key when one graph lists one edge twice."""
        graph = np.repeat(np.arange(len(self.offsets) - 1, dtype=np.int64), np.diff(self.offsets))
        return graph * len(self.edges) + self.cols

    @cached_property
    def _by_column(self) -> tuple[np.ndarray, np.ndarray]:
        """The entries ordered by column, then graph, and where the run of each
        column starts; column ``len(edges)``, of no edge, has an empty run."""
        order = np.argsort(self.cols, kind="stable").astype(np.int32)
        starts = np.zeros(len(self.edges) + 2, dtype=np.intp)
        np.cumsum(np.bincount(self.cols, minlength=len(self.edges) + 1), out=starts[1:])
        return order, starts


def _edge_counts(dataset: Dataset) -> np.ndarray:
    """For each edge of the dataset's edge table, how many of its graphs hold it."""
    table, rows = dataset._edge_table
    order, starts = table._by_column
    # how often each table graph is among the dataset's; int32 halves the per-entry copy
    copies = np.bincount(rows, minlength=len(table.offsets) - 1).astype(np.int32)
    # every table edge has entries, so no run is empty
    return np.add.reduceat(np.repeat(copies, np.diff(table.offsets))[order], starts[:-2])


def _edge_rows(dataset: Dataset, cols: np.ndarray) -> np.ndarray:
    """The probability of each table edge ``cols`` in each of the dataset's
    graphs, one row per edge; 0 where the graph lacks the edge."""
    table, rows = dataset._edge_table
    order, starts = table._by_column
    at, k = _ranges(starts[cols], starts[cols + 1])
    entries = order[at]
    # the positions in ``rows`` of table graph g are by_graph[first[g]:first[g + 1]]
    by_graph = np.argsort(rows, kind="stable")
    first = np.searchsorted(rows[by_graph], np.arange(len(table.offsets)))
    graph = np.searchsorted(table.offsets, entries, side="right") - 1
    at, e = _ranges(first[graph], first[graph + 1])
    matrix = np.zeros((len(cols), len(rows)))
    matrix[k[e], by_graph[at]] = table.probs[entries[e]]
    return matrix


def _listed_probabilities(dataset: Dataset) -> np.ndarray:
    """The edge probabilities of the dataset's graphs, graph after graph,
    each in the order its edges were listed."""
    table, rows = dataset._edge_table
    return table.probs[_ranges(table.offsets[rows], table.offsets[rows + 1])[0]]


def _require_nodes(g: Subgraph, num_nodes: int) -> None:
    top = max(v for _, v in g.edges)
    if top >= num_nodes:
        raise ValueError(f"subgraph node {top} outside universe of {num_nodes} nodes")


def contains(g: Subgraph, graph: CertainGraph) -> bool:
    """True iff every edge of ``g`` is present in ``graph``."""
    _require_nodes(g, graph.num_nodes)
    return all(e in graph.edges for e in g.edges)


def containment_probability(g: Subgraph, graph: UncertainGraph) -> float:
    """Probability that a world of ``graph`` contains ``g``.

    Equals the product of the edge probabilities of ``g`` when every edge is
    present in ``graph``, and exactly 0 otherwise. The product starts from
    1.0 and takes the edges in the order ``mine`` multiplies them (``_chain``).
    """
    _require_nodes(g, graph.num_nodes)
    prod = 1.0
    for e in g._chain:
        p = graph.edges.get(e)
        if p is None:
            return 0.0
        prod *= p
    return prod


def _containment_matrix(dataset: Dataset, features: Sequence[Subgraph]) -> np.ndarray:
    """Containment probabilities, one row per graph and one column per feature.

    Entry (i, k) is bit for bit ``containment_probability(features[k],
    dataset.graphs[i])``: a feature's edge rows, read from the dataset's edge
    table, are multiplied in the order the reverse-search tree adds them,
    starting from 1.0, and an absent edge's 0 makes the product 0.
    """
    if len(dataset):
        for f in features:
            _require_nodes(f, dataset.num_nodes)
    table = dataset._edge_table[0]
    edges = sorted({e for f in features for e in f.edges})
    at = [bisect_left(table.edges, e) for e in edges]
    # an edge no graph holds reads the empty column len(table.edges)
    cols = [j if table.edges[j : j + 1] == [e] else len(table.edges) for e, j in zip(edges, at)]
    row = dict(zip(edges, _edge_rows(dataset, np.array(cols, dtype=np.intp))))
    matrix = np.empty((len(dataset), len(features)))
    for k, f in enumerate(features):
        prod = np.ones(len(dataset))
        for e in f._chain:
            prod *= row[e]
        matrix[:, k] = prod
    return matrix


def union_graph(dataset: Dataset, counts: np.ndarray | None = None) -> CertainGraph:
    """Certain graph holding every edge that appears in any graph of the dataset.

    This is the search universe for subgraph enumeration: an edge can occur in
    a feature only if some graph assigns it nonzero probability. Its edges,
    already checked and ascending, are the table edges some graph holds, by
    ``counts`` (``_edge_counts``, computed here when not given).
    """
    table = dataset._edge_table[0]
    union = np.flatnonzero(_edge_counts(dataset) if counts is None else counts)
    edges = [table.edges[j] for j in union.tolist()]
    return CertainGraph._trusted(dataset.num_nodes, edges, table.ends[union])


def _table_dataset(
    num_nodes: int,
    us: np.ndarray,
    vs: np.ndarray,
    probs: np.ndarray,
    sizes: Sequence[int],
    labels: Sequence[int],
    ids: Sequence[str],
) -> Dataset:
    """The dataset of the graphs whose entries are the edges ``(us[k], vs[k])``,
    listed either way round, with probability ``probs[k]`` (``sizes[r]``
    entries for graph r), and their labels and ids, as rows of one new table.

    ``_edge_fault``'s rules, run once over every entry: with lo < hi the
    ordered endpoints, 0 <= lo, hi < num_nodes, p in (0, 1], and no edge
    twice in a graph. This is the only place that finds a bad entry: the
    lowest graph that breaks a rule goes, as listed, to ``_check_edges``,
    which raises its ``DatasetFormatError``.
    """
    lo, hi = us, vs
    if (us > vs).any():  # order copies, so that the caller's arrays keep the listing
        lo, hi = np.minimum(us, vs), np.maximum(us, vs)
    # NaN fails both probability tests
    bad = np.flatnonzero(
        ~((0 <= lo) & (lo < hi) & (hi < num_nodes) & (0.0 < probs) & (probs <= 1.0))
    )
    # only the graphs before that of the first bad entry, which pass, go into the table
    count = int(np.searchsorted(np.cumsum(sizes), bad[0], side="right")) if len(bad) else len(sizes)
    stop = int(np.sum(sizes[:count]))
    table = _EdgeTable(lo[:stop], hi[:stop], probs[:stop], sizes[:count])
    keys = np.sort(table._entry_keys())
    twice = np.flatnonzero(keys[1:] == keys[:-1])
    if len(twice) or len(bad):
        # the lowest bad graph: one that lists an edge twice, else that of the first bad entry
        graph = int(keys[twice[0]]) // len(table.edges) if len(twice) else count
        at = slice(int(np.sum(sizes[:graph])), int(np.sum(sizes[: graph + 1])))
        entries = zip(us[at].tolist(), vs[at].tolist(), probs[at].tolist())
        _check_edges(graph, list(map(list, entries)), num_nodes)
        raise AssertionError(f"graph {graph}: the entry-by-entry rules found no fault")
    graphs = tuple(UncertainGraph._row_of(num_nodes, table, r) for r in range(len(sizes)))
    dataset = Dataset(num_nodes, graphs, tuple(labels), tuple(ids))
    dataset.__dict__["_edge_table"] = (table, np.arange(len(graphs)))
    return dataset


class _EdgeList:
    """A graph's ``edges`` as decoded: a list of well-typed [u, v, p] entries,
    held as arrays of their endpoints and probabilities.

    An object that is no graph (a bad label, say) may hold an ``edges`` key
    too, and an error echoes it as decoded: ``raw_ps`` keeps the decoded
    probabilities when some are ints, so that the repr is the very list the
    JSON text held.
    """

    __slots__ = ("us", "vs", "ps", "raw_ps")

    def __init__(self, us: np.ndarray, vs: np.ndarray, ps: np.ndarray, raw_ps) -> None:
        self.us, self.vs, self.ps, self.raw_ps = us, vs, ps, raw_ps

    def __repr__(self) -> str:
        ps = self.ps.tolist() if self.raw_ps is None else self.raw_ps
        return repr([list(e) for e in zip(self.us.tolist(), self.vs.tolist(), ps)])


_DECODED_TYPES = (np.intp, np.intp, np.float64)


def _decode_edges(obj: dict) -> dict:
    """``json.loads`` object hook: hold an ``edges`` list of well-typed
    [u, v, p] entries as an ``_EdgeList``, so that no graph's decoded lists
    outlive its object.

    Well-typed means ``int`` endpoints that fit intp and an ``int`` or
    ``float`` probability within the float range. Any other ``edges`` value
    is left as decoded; a nonempty list left so breaks a rule, as a label
    past intp is no node and a number past the float range no probability.
    """
    edges = obj.get("edges")
    if type(edges) is not list or not edges:
        return obj
    if set(map(type, edges)) != {list} or set(map(len, edges)) != {3}:
        return obj
    us, vs, ps = zip(*edges)
    types = set(map(type, ps))
    if set(map(type, us)) == set(map(type, vs)) == {int} and types <= {int, float}:
        n = len(edges)
        try:
            arrays = [np.fromiter(c, t, n) for c, t in zip((us, vs, ps), _DECODED_TYPES)]
        except OverflowError:
            return obj
        obj["edges"] = _EdgeList(*arrays, None if types == {float} else ps)
    return obj


def _check_edges(i: int, raw_edges: list, num_nodes: int) -> None:
    """Check graph ``i``'s edge list entry by entry; raises DatasetFormatError
    at the first entry that breaks a rule."""
    seen: set[Edge] = set()
    for j, entry in enumerate(raw_edges):
        if not (isinstance(entry, list) and len(entry) == 3):
            raise DatasetFormatError(f"graph {i}, edge {j}: expected [u, v, p]")
        u, v, p = entry
        fault = _edge_fault(u, v, p, num_nodes, seen)
        if fault:
            raise DatasetFormatError(f"graph {i}, edge {j}: {fault}")
        seen.add((u, v) if u < v else (v, u))


def parse_dataset(text: bytes | str) -> Dataset:
    """Parse the JSON dataset format; raises DatasetFormatError with context.

    Every valid graph's edge list was decoded into arrays, and goes to the
    builder, ``_table_dataset``, as decoded; a nonempty list left undecoded
    fails ``_check_edges`` as it is read. The error is the first bad graph's:
    when reading graph i fails, the graphs before it still go to the builder,
    whose error, of an earlier graph, is raised before graph i's. No graph
    is checked entry by entry but the one that breaks a rule.
    """
    # ValueError covers bad UTF-8, bad JSON and an integer of more digits than
    # int() converts; RecursionError, JSON nested too deep
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        obj = json.loads(text, object_hook=_decode_edges)
    except (ValueError, RecursionError) as exc:
        raise DatasetFormatError(f"malformed JSON: {exc}") from exc
    del text  # free the decoded str before the table is built
    if not isinstance(obj, dict):
        raise DatasetFormatError("top level must be a JSON object")
    try:
        num_nodes = _node_count(obj.get("num_nodes"))
    except ValueError:
        raise DatasetFormatError(f"num_nodes must be a nonnegative integer, at most {_MAX_NODES}")
    raw_graphs = obj.get("graphs")
    if not isinstance(raw_graphs, list):
        raise DatasetFormatError("graphs must be a list")

    # the entries of every graph, after those of no graph, which fix the dtypes
    no_edges = tuple(np.empty(0, t) for t in _DECODED_TYPES)
    parts = [no_edges]
    labels: list[int] = []
    ids: list[str] = []
    error = None
    for i in range(len(raw_graphs)):
        # drop each raw entry once read, so its arrays are freed once copied
        item, raw_graphs[i] = raw_graphs[i], None
        try:
            if not isinstance(item, dict):
                raise DatasetFormatError(f"graph {i}: entry must be an object")
            label = item.get("label")
            if isinstance(label, bool) or label not in (1, -1):
                raise DatasetFormatError(f"graph {i}: label must be 1 or -1, got {label!r}")
            gid = item.get("id", f"g{i}")
            if not isinstance(gid, str):
                raise DatasetFormatError(f"graph {i}: id must be a string")
            raw_edges = item.get("edges")
            if type(raw_edges) is _EdgeList:
                part = raw_edges.us, raw_edges.vs, raw_edges.ps
            elif not isinstance(raw_edges, list):
                raise DatasetFormatError(f"graph {i}: edges must be a list")
            elif raw_edges:
                _check_edges(i, raw_edges, num_nodes)
                raise AssertionError(f"graph {i}: an undecoded edge list broke no rule")
            else:
                part = no_edges
        except DatasetFormatError as exc:  # raised after any error of the graphs before
            error = exc
            break
        parts.append(part)
        labels.append(label)
        ids.append(gid)
    us, vs, probs = map(np.concatenate, zip(*parts))
    sizes = [len(part[0]) for part in parts[1:]]
    del parts
    dataset = _table_dataset(num_nodes, us, vs, probs, sizes, labels, ids)
    if error is not None:
        raise error
    return dataset


def serialize_dataset(dataset: Dataset) -> bytes:
    """Serialize to the JSON dataset format; inverse of parse_dataset.

    Written from the dataset's edge table, graph by graph, each graph's
    edges ascending. Probabilities are written with repr-level precision so
    parsing the output reproduces the dataset exactly, bit for bit.
    """
    table, rows = dataset._edge_table
    heads = [f"[{u}, {v}, " for u, v in table.edges]
    # each graph's entries by column, which is edge order
    order = np.argsort(table._entry_keys())
    cols, probs = table.cols[order], table.probs[order]
    offsets = table.offsets.tolist()
    # every line is ASCII (json.dumps escapes the rest), so each is encoded as
    # it is made and no str copy of the whole text is held
    lines = [b"{", f' "num_nodes": {dataset.num_nodes},'.encode(), b' "graphs": [']
    for i, r in enumerate(rows.tolist()):
        at = slice(offsets[r], offsets[r + 1])
        entries = zip(cols[at].tolist(), probs[at].tolist())
        edges = ", ".join([heads[c] + repr(p) + "]" for c, p in entries])
        gid, label = json.dumps(dataset.ids[i]), json.dumps(dataset.labels[i])
        comma = "," if i + 1 < len(rows) else ""
        lines.append(f'  {{"id": {gid}, "label": {label}, "edges": [{edges}]}}{comma}'.encode())
    lines += [b" ]", b"}", b""]
    return b"\n".join(lines)
