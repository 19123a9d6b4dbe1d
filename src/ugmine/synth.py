"""Synthetic uncertain-graph datasets with a planted discriminative subgraph.

Each graph receives a fixed number of background edges drawn uniformly
without replacement, with probabilities uniform in a configured range; the
planted subgraph's edges are then stamped on top with a class-dependent
probability (high in positives, low in negatives, mirroring the kind of signal
that separates classes). Presets approximate the scale of three published
brain-connectome datasets plus the hand-sized four-graph teaching example.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Dataset, Edge, Subgraph, UncertainGraph, _listed_probabilities

PRESETS = ("fig2", "adhd-like", "adni-like", "hiv-like")

_DEFAULT_PLANTED = Subgraph(((0, 1), (1, 2), (2, 3)))


@dataclass(frozen=True)
class SynthConfig:
    seed: int
    n_pos: int
    n_neg: int
    num_nodes: int
    background_edges_per_graph: int
    background_prob_range: tuple[float, float]
    planted: Subgraph
    planted_prob_pos: float
    planted_prob_neg: float

    def __post_init__(self) -> None:
        if self.n_pos < 1 or self.n_neg < 1:
            raise ValueError("both class counts must be >= 1")
        lo, hi = self.background_prob_range
        if not (0.0 < lo <= hi <= 1.0):
            raise ValueError("background_prob_range must satisfy 0 < lo <= hi <= 1")
        for p in (self.planted_prob_pos, self.planted_prob_neg):
            if not (0.0 < p <= 1.0):
                raise ValueError("planted probabilities must lie in (0, 1]")
        max_node = max(v for _, v in self.planted.edges)
        if max_node >= self.num_nodes:
            raise ValueError("planted subgraph does not fit the node universe")
        n_pairs = self.num_nodes * (self.num_nodes - 1) // 2
        if self.background_edges_per_graph > n_pairs:
            raise ValueError(
                f"{self.background_edges_per_graph} background edges requested "
                f"but only {n_pairs} node pairs exist"
            )


def _all_pairs(num_nodes: int) -> list[Edge]:
    return [(u, v) for u in range(num_nodes) for v in range(u + 1, num_nodes)]


def generate(cfg: SynthConfig) -> Dataset:
    """Deterministic dataset for the config; per-graph seeds derive from cfg.seed."""
    pairs = _all_pairs(cfg.num_nodes)
    lo, hi = cfg.background_prob_range
    graphs = []
    labels = []
    ids = []
    total = cfg.n_pos + cfg.n_neg
    for i in range(total):
        is_pos = i < cfg.n_pos
        rng = np.random.default_rng([cfg.seed, i])
        chosen = rng.choice(len(pairs), size=cfg.background_edges_per_graph, replace=False)
        probs = rng.uniform(lo, hi, size=cfg.background_edges_per_graph)
        edges = {pairs[j]: float(p) for j, p in zip(chosen, probs)}
        planted_p = cfg.planted_prob_pos if is_pos else cfg.planted_prob_neg
        for e in cfg.planted.edges:
            edges[e] = planted_p  # planted signal overwrites colliding background
        graphs.append(UncertainGraph(cfg.num_nodes, edges))
        labels.append(1 if is_pos else -1)
        ids.append(f"pos{i}" if is_pos else f"neg{i - cfg.n_pos}")
    return Dataset(cfg.num_nodes, tuple(graphs), tuple(labels), tuple(ids))


def fig2_dataset() -> Dataset:
    """The four-graph, three-node teaching example (nodes A=0, B=1, C=2)."""
    g1 = UncertainGraph(3, {(0, 1): 0.8, (1, 2): 0.9, (0, 2): 0.1})
    g2 = UncertainGraph(3, {(0, 1): 0.9, (1, 2): 0.8, (0, 2): 0.1})
    g3 = UncertainGraph(3, {(0, 1): 0.1, (1, 2): 0.9})
    g4 = UncertainGraph(3, {(0, 1): 0.8, (1, 2): 0.1})
    return Dataset(3, (g1, g2, g3, g4), (1, 1, -1, -1), ("g1", "g2", "g3", "g4"))


def preset_config(
    name: str,
    seed: int = 0,
    planted: Subgraph | None = None,
    planted_prob_pos: float = 0.9,
    planted_prob_neg: float = 0.1,
) -> SynthConfig:
    """Random-generator config for a named preset (fig2 is fixed, not random)."""
    if planted is None:
        planted = _DEFAULT_PLANTED
    base = dict(
        seed=seed,
        planted=planted,
        planted_prob_pos=planted_prob_pos,
        planted_prob_neg=planted_prob_neg,
    )
    if name == "adhd-like":
        return SynthConfig(
            n_pos=100,
            n_neg=100,
            num_nodes=116,
            background_edges_per_graph=485,
            background_prob_range=(0.25, 0.85),
            **base,
        )
    if name == "adni-like":
        return SynthConfig(
            n_pos=18,
            n_neg=18,
            num_nodes=90,
            background_edges_per_graph=2020,
            background_prob_range=(0.29, 0.89),
            **base,
        )
    if name == "hiv-like":
        return SynthConfig(
            n_pos=25,
            n_neg=25,
            num_nodes=90,
            background_edges_per_graph=480,
            background_prob_range=(0.78, 0.98),
            **base,
        )
    raise ValueError(f"unknown preset {name!r}; expected one of {PRESETS}")


def make_preset(name: str, seed: int = 0, **overrides) -> Dataset:
    """Dataset for a named preset; overrides forward to preset_config."""
    if name == "fig2":
        return fig2_dataset()
    return generate(preset_config(name, seed=seed, **overrides))


@dataclass(frozen=True)
class DatasetStats:
    n_graphs: int
    n_pos: int
    n_neg: int
    num_nodes: int
    mean_edges: float
    mean_edge_prob: float
    empty: bool


def dataset_stats(dataset: Dataset) -> DatasetStats:
    """Exact per-dataset means: graph counts, edge counts, edge probabilities.

    Read from the dataset's edge table; the probabilities are summed graph by
    graph, each in the order its edges were listed.
    """
    n = len(dataset)
    if n == 0:
        return DatasetStats(0, 0, 0, dataset.num_nodes, 0.0, 0.0, empty=True)
    all_probs = _listed_probabilities(dataset).tolist()
    mean_prob = sum(all_probs) / len(all_probs) if all_probs else 0.0
    return DatasetStats(
        n_graphs=n,
        n_pos=dataset.n_pos,
        n_neg=dataset.n_neg,
        num_nodes=dataset.num_nodes,
        mean_edges=len(all_probs) / n,
        mean_edge_prob=mean_prob,
        empty=False,
    )
