"""Shared fixtures and independent helpers for the test suite.

The enumeration helpers here are deliberately written without reusing library
internals (own connectivity check, own subset walk) so they can serve as
independent references for the miner and the distribution code. Two
exceptions: ``eager_search`` reuses the measure kernel so that its values
equal the miner's bit for bit; its traversal and bookkeeping are its own.
``reference_oracle_measure``, the oracle's measure as it was when it scored
world by world, reuses the oracle's per-graph worlds and the measure helpers,
so that it differs from ``oracle_measure`` only in walking worlds, not cells.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
from bisect import insort
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from ugmine import (
    Dataset,
    DatasetFormatError,
    Subgraph,
    UncertainGraph,
    canonical_parent,
    fig2_dataset,
    score_grid,
    union_graph,
)
from ugmine.distribution import (
    EXPECTATION,
    PHI_PROBABILITY,
    MeasureSpec,
    _batched_support,
    _MeasureGrids,
    distribution_from_pairs,
    exp_of_pairs,
    measure_from_distribution,
    phi_pr_of_pairs,
)
from ugmine.oracle import DEFAULT_MAX_WORLDS, _check_budget, _graph_worlds
from ugmine.scores import ScoreFunction, eval_score

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def fig2() -> Dataset:
    return fig2_dataset()


def all_pairs(num_nodes: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(num_nodes) for v in range(u + 1, num_nodes)]


def make_random_dataset(
    rng: random.Random,
    n_graphs: int | None = None,
    num_nodes: int = 4,
    max_edges: int = 3,
    prob_lo: float = 0.05,
    prob_hi: float = 1.0,
) -> Dataset:
    """Tiny random dataset with at least one graph per class."""
    if n_graphs is None:
        n_graphs = rng.randint(2, 6)
    pairs = all_pairs(num_nodes)
    graphs = []
    labels = []
    for i in range(n_graphs):
        k = rng.randint(0, max_edges)
        edges = {e: rng.uniform(prob_lo, prob_hi) for e in rng.sample(pairs, k)}
        graphs.append(UncertainGraph(num_nodes, edges))
        labels.append(1 if i == 0 else -1 if i == 1 else rng.choice([1, -1]))
    return Dataset(num_nodes, tuple(graphs), tuple(labels))


def _subset_connected(edges: tuple[tuple[int, int], ...]) -> bool:
    """Union-find connectivity over the edge-induced node set."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent.setdefault(u, u)
        parent.setdefault(v, v)
        parent[find(u)] = find(v)
    roots = {find(n) for n in parent}
    return len(roots) == 1


def connected_edge_subsets(edges: list[tuple[int, int]]) -> set[frozenset]:
    """Every nonempty connected edge subset, by direct powerset filtering."""
    out = set()
    for r in range(1, len(edges) + 1):
        for combo in itertools.combinations(edges, r):
            if _subset_connected(combo):
                out.add(frozenset(combo))
    return out


def random_connected_subgraph(
    rng: random.Random, universe_edges: list[tuple[int, int]], max_size: int = 3
) -> Subgraph:
    """Grow a random connected subgraph from a random seed edge."""
    sub = {rng.choice(universe_edges)}
    target = rng.randint(1, max_size)
    while len(sub) < target:
        nodes = {n for e in sub for n in e}
        frontier = sorted(
            e for e in universe_edges if e not in sub and (e[0] in nodes or e[1] in nodes)
        )
        if not frontier:
            break
        sub.add(rng.choice(frontier))
    return Subgraph(tuple(sorted(sub)))


def extend_subgraph(
    rng: random.Random, sub: Subgraph, universe_edges: list[tuple[int, int]], extra: int
) -> Subgraph | None:
    """Random connected supergraph of ``sub`` with up to ``extra`` more edges."""
    edges = set(sub.edges)
    for _ in range(extra):
        nodes = {n for e in edges for n in e}
        frontier = sorted(
            e for e in universe_edges if e not in edges and (e[0] in nodes or e[1] in nodes)
        )
        if not frontier:
            break
        edges.add(rng.choice(frontier))
    if len(edges) == len(sub.edges):
        return None
    return Subgraph(tuple(sorted(edges)))


@functools.lru_cache(maxsize=8)
def _incident_edges(universe) -> dict[int, list[tuple[int, int]]]:
    """Each node of ``universe``'s edges, with the edges that touch it."""
    incident: dict[int, list[tuple[int, int]]] = {}
    for e in universe.edges:
        for n in e:
            incident.setdefault(n, []).append(e)
    return incident


def reference_children(parent: Subgraph, universe) -> list[Subgraph]:
    """Children by definition: each incident edge e, ascending, whose
    extension P+e has canonical parent P."""
    incident = _incident_edges(universe)
    near = {e for n in parent.nodes for e in incident.get(n, ())}
    out = []
    for e in sorted(near.difference(parent.edges)):
        # P+e is connected, as e touches the connected P; a child is validated
        cand = Subgraph._trusted(tuple(sorted(parent.edges + (e,))))
        if canonical_parent(cand) == parent:
            out.append(Subgraph(cand.edges))
    return out


def eager_search(dataset: Dataset, cfg, bounded: bool = True, laws: dict | None = None) -> tuple:
    """Reference traversal that builds every child and counts a child list
    when it pushes it; with ``bounded`` it prunes by the bound of a bounded
    measure, as ``mine`` does.

    The tree comes from ``reference_children``; a node's containment row is
    its parent's times the added edge's probabilities, and its measure value
    and bound come from the library kernel applied to that row alone, so they
    equal the miner's bit for bit. A node at or below min_sup is dropped when
    popped. Returns (features as (edges, value) pairs, nodes_evaluated,
    frequency_pruned, bound_pruned, theta_trace). A ``laws`` dict receives
    the bytes of the (positive, negative) support laws of every node above
    min_sup, under its edges; each class has its own DP call.
    """
    pos = [i for i, y in enumerate(dataset.labels) if y == 1]
    neg = [i for i, y in enumerate(dataset.labels) if y == -1]
    grids = _MeasureGrids(cfg.measure, score_grid(cfg.score, len(pos), len(neg)))
    bounded = bounded and grids.bounded
    universe = union_graph(dataset)
    universe_edges = sorted(universe.edges)
    edge_probs = {
        e: np.array([g.edges.get(e, 0.0) for g in dataset.graphs]) for e in universe_edges
    }

    kept: list[tuple[tuple, float]] = []  # ((-value, size, edges), value), best first
    theta = -math.inf
    trace = []
    freq_pruned = bound_pruned = 0
    stack = [(Subgraph((e,)), edge_probs[e]) for e in reversed(universe_edges)]
    evaluated = len(stack)
    while stack:
        sub, contain = stack.pop()
        if contain.mean() <= cfg.min_sup:
            freq_pruned += 1
            continue
        p = _batched_support(contain[pos][None, :])
        n = _batched_support(contain[neg][None, :])
        if laws is not None:
            laws[sub.edges] = (p[0].tobytes(), n[0].tobytes())
        value = float(grids.values(p, n)[0])
        insort(kept, ((-value, len(sub.edges), sub.edges), value))
        del kept[cfg.t :]
        new_theta = kept[-1][1] if len(kept) == cfg.t else -math.inf
        if new_theta != theta:
            theta = new_theta
            trace.append((evaluated, theta))
        if bounded and float(grids.bounds(p, n)[0]) < theta:
            bound_pruned += 1
            continue
        if cfg.max_edges is not None and len(sub.edges) >= cfg.max_edges:
            continue
        kids = reference_children(sub, universe)
        evaluated += len(kids)
        for kid in reversed(kids):
            (added,) = set(kid.edges) - set(sub.edges)
            stack.append((kid, contain * edge_probs[added]))
    features = [(key[2], value) for key, value in kept]
    return features, evaluated, freq_pruned, bound_pruned, trace


# Generated JSON text for the fuzz tests: any nested value of ints, floats,
# bools, strings and null, with integer literals of up to 6000 digits.


class Huge(str):
    """An integer literal of any length, written verbatim into JSON text."""


def to_json(value) -> str:
    """JSON text of ``value``; a ``Huge`` is written as its digits, so it may
    hold more digits than ``json.dumps`` or ``int()`` take."""
    if isinstance(value, Huge):
        return str.__str__(value)
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {to_json(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(to_json(v) for v in value) + "]"
    return json.dumps(value)


JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-3, 8)
    | st.integers()
    | st.builds(
        lambda sign, digits: Huge(sign + digits),
        st.sampled_from(["", "-"]),
        st.sampled_from(["1" + "0" * 308, "9" * 400, "3" * 4300, "1" * 4301, "5" * 6000]),
    )
    | st.floats()
    | st.sampled_from([0.5, 1.0, 1e-320, 1.0000000000000002])
    | st.text(max_size=4)
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def mostly(sane):
    """Values of ``sane``, but in one draw of sixteen any JSON value."""
    return st.integers(0, 15).flatmap(lambda k: JSON_VALUES if k == 0 else sane)


# The dataset parser as it was before parsing went straight into the edge
# table: a per-edge loop over the whole decoded tree that builds one edge dict
# per graph, and the edge table built from those dicts. The differential test
# of ``parse_dataset`` compares against these.


def reference_parse(text: bytes | str) -> Dataset:
    """Parse the JSON dataset format entry by entry; raises DatasetFormatError."""
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DatasetFormatError(f"malformed JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise DatasetFormatError("top level must be a JSON object")
    num_nodes = obj.get("num_nodes")
    if type(num_nodes) is not int or not 0 <= num_nodes <= 2**31:
        raise DatasetFormatError("num_nodes must be a nonnegative integer, at most 2147483648")
    raw_graphs = obj.get("graphs")
    if not isinstance(raw_graphs, list):
        raise DatasetFormatError("graphs must be a list")
    graphs, labels, ids = [], [], []
    for i, item in enumerate(raw_graphs):
        if not isinstance(item, dict):
            raise DatasetFormatError(f"graph {i}: entry must be an object")
        label = item.get("label")
        if isinstance(label, bool) or label not in (1, -1):
            raise DatasetFormatError(f"graph {i}: label must be 1 or -1, got {label!r}")
        gid = item.get("id", f"g{i}")
        if not isinstance(gid, str):
            raise DatasetFormatError(f"graph {i}: id must be a string")
        raw_edges = item.get("edges")
        if not isinstance(raw_edges, list):
            raise DatasetFormatError(f"graph {i}: edges must be a list")
        edges = {}
        for j, entry in enumerate(raw_edges):
            if not (isinstance(entry, list) and len(entry) == 3):
                raise DatasetFormatError(f"graph {i}, edge {j}: expected [u, v, p]")
            u, v, p = entry
            if type(u) is not int or type(v) is not int:
                raise DatasetFormatError(f"graph {i}, edge {j}: endpoints must be integers")
            if u == v:
                raise DatasetFormatError(f"graph {i}, edge {j}: self-loop ({u}, {v})")
            if not isinstance(p, (int, float)) or isinstance(p, bool):
                raise DatasetFormatError(f"graph {i}, edge {j}: probability must be a number")
            try:
                p = float(p)
            except OverflowError:
                p = math.inf if p > 0 else -math.inf
            if not (0.0 < p <= 1.0) or math.isnan(p):
                raise DatasetFormatError(
                    f"graph {i}, edge {j}: probability {p} out of range (0, 1]"
                )
            e = (u, v) if u < v else (v, u)
            if not (0 <= e[0] and e[1] < num_nodes):
                raise DatasetFormatError(
                    f"graph {i}, edge {j}: endpoints ({u}, {v}) outside [0, {num_nodes})"
                )
            if e in edges:
                raise DatasetFormatError(f"graph {i}, edge {j}: duplicate edge ({e[0]}, {e[1]})")
            edges[e] = p
        graphs.append(UncertainGraph(num_nodes, edges))
        labels.append(label)
        ids.append(gid)
    return Dataset(num_nodes, tuple(graphs), tuple(labels), tuple(ids))


def reference_table(graphs) -> dict[str, object]:
    """The edge table of ``graphs``, built from their edge dicts: the union
    edges, their endpoints, and each entry's column and probability, graph by
    graph in dict order."""
    edges = sorted(set().union(*(g.edges for g in graphs)))
    flat = list(itertools.chain.from_iterable(edges))
    ends = np.fromiter(flat, np.intp, len(flat)).reshape(-1, 2)
    column = {e: j for j, e in enumerate(edges)}
    offsets = np.zeros(len(graphs) + 1, dtype=np.intp)
    np.cumsum([len(g.edges) for g in graphs], out=offsets[1:])
    total = int(offsets[-1])
    cols = np.fromiter((column[e] for g in graphs for e in g.edges), np.int32, total)
    probs = np.fromiter((p for g in graphs for p in g.edges.values()), np.float64, total)
    return {"edges": edges, "ends": ends, "offsets": offsets, "cols": cols, "probs": probs}


# The generator and serializer as they were before ``gen`` went straight into
# the edge table: one edge dict per graph, planted edges stamped on top, and
# one ``json.dumps`` per graph of its sorted edge dict. The differential tests
# of ``generate`` and ``serialize_dataset`` compare against these.


def reference_generate(cfg) -> Dataset:
    """The dataset of ``cfg`` (a ``SynthConfig``), built graph by graph from edge dicts."""
    pairs = all_pairs(cfg.num_nodes)
    lo, hi = cfg.background_prob_range
    graphs, labels, ids = [], [], []
    for i in range(cfg.n_pos + cfg.n_neg):
        is_pos = i < cfg.n_pos
        rng = np.random.default_rng([cfg.seed, i])
        chosen = rng.choice(len(pairs), size=cfg.background_edges_per_graph, replace=False)
        probs = rng.uniform(lo, hi, size=cfg.background_edges_per_graph)
        edges = {pairs[j]: float(p) for j, p in zip(chosen, probs)}
        for e in cfg.planted.edges:
            edges[e] = cfg.planted_prob_pos if is_pos else cfg.planted_prob_neg
        graphs.append(UncertainGraph(cfg.num_nodes, edges))
        labels.append(1 if is_pos else -1)
        ids.append(f"pos{i}" if is_pos else f"neg{i - cfg.n_pos}")
    return Dataset(cfg.num_nodes, tuple(graphs), tuple(labels), tuple(ids))


def reference_serialize(dataset: Dataset) -> bytes:
    """The JSON dataset format of ``dataset``, written from its graphs' edge dicts."""
    lines = ["{", f' "num_nodes": {dataset.num_nodes},', ' "graphs": [']
    for i, g in enumerate(dataset.graphs):
        obj = {
            "id": dataset.ids[i],
            "label": dataset.labels[i],
            "edges": [[u, v, p] for (u, v), p in sorted(g.edges.items())],
        }
        comma = "," if i + 1 < len(dataset.graphs) else ""
        lines.append("  " + json.dumps(obj) + comma)
    lines.append(" ]")
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _reference_world_supports(g: Subgraph, dataset: Dataset):
    """(positive support, negative support, probability) of ``g`` in each world."""
    need = set(g.edges)
    per_graph = []
    for idx, graph in enumerate(dataset.graphs):
        is_pos = dataset.labels[idx] == 1
        entries = []
        for edges, p in _graph_worlds(graph):
            cont = need.issubset(edges)
            entries.append((p, int(cont and is_pos), int(cont and not is_pos)))
        per_graph.append(entries)
    for combo in itertools.product(*per_graph):
        p = 1.0
        a = 0
        b = 0
        for gp, da, db in combo:
            p *= gp
            a += da
            b += db
        yield a, b, p


def reference_oracle_measure(
    g: Subgraph,
    dataset: Dataset,
    measure: MeasureSpec,
    score: ScoreFunction,
    max_worlds: int = DEFAULT_MAX_WORLDS,
) -> float:
    """Measure of the world-level score multiset, summed world by world.

    The oracle's measure before it was read off the joint: every world is
    walked and scored (scores memoized per support pair), and the measure
    taken over the raw (score, world probability) pairs.
    """
    _check_budget(dataset, max_worlds)
    n_pos = dataset.n_pos
    n_neg = dataset.n_neg
    if n_pos < 1 or n_neg < 1:
        raise ValueError("both classes must be nonempty")
    memo: dict[tuple[int, int], float] = {}
    pairs = []
    for a, b, p in _reference_world_supports(g, dataset):
        s = memo.get((a, b))
        if s is None:
            s = eval_score(score, a, b, n_pos, n_neg)
            memo[(a, b)] = s
        pairs.append((s, p))
    # Expectation and phi-probability consume the raw world pairs, median and
    # mode the grouped atoms -- mirroring the dynamic-programming route.
    if measure.kind == EXPECTATION:
        return exp_of_pairs(pairs)
    if measure.kind == PHI_PROBABILITY:
        assert measure.phi is not None
        return phi_pr_of_pairs(pairs, measure.phi)
    return measure_from_distribution(distribution_from_pairs(pairs), measure)
