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

from .graphs import (
    Dataset,
    Subgraph,
    UncertainGraph,
    _listed_probabilities,
    _node_count,
    _nonnegative_int,
    _table_dataset,
)

# each random preset's n_pos, n_neg, num_nodes, background_edges_per_graph
# and background_prob_range, in SynthConfig's field order
_SHAPES = {
    "adhd-like": (100, 100, 116, 485, (0.25, 0.85)),
    "adni-like": (18, 18, 90, 2020, (0.29, 0.89)),
    "hiv-like": (25, 25, 90, 480, (0.78, 0.98)),
}

PRESETS = ("fig2", *_SHAPES)

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
        for name in ("seed", "n_pos", "n_neg", "background_edges_per_graph"):
            object.__setattr__(self, name, _nonnegative_int(getattr(self, name), name))
        object.__setattr__(self, "num_nodes", _node_count(self.num_nodes))
        if self.n_pos < 1 or self.n_neg < 1:
            raise ValueError("both class counts must be >= 1")
        lo, hi = self.background_prob_range
        if not (0.0 < lo <= hi <= 1.0):
            raise ValueError("background_prob_range must satisfy 0 < lo <= hi <= 1")
        for name in ("planted_prob_pos", "planted_prob_neg"):
            p = getattr(self, name)
            # a bool is no probability, though it compares as one
            if isinstance(p, bool) or not isinstance(p, (int, float)):
                raise ValueError(f"{name} must be a number, got {p!r}")
            if not (0.0 < p <= 1.0):
                raise ValueError(f"{name} must lie in (0, 1], got {p!r}")
            object.__setattr__(self, name, float(p))
        max_node = max(v for _, v in self.planted.edges)
        if max_node >= self.num_nodes:
            raise ValueError("planted subgraph does not fit the node universe")
        n_pairs = self.num_nodes * (self.num_nodes - 1) // 2
        if self.background_edges_per_graph > n_pairs:
            raise ValueError(
                f"{self.background_edges_per_graph} background edges requested "
                f"but only {n_pairs} node pairs exist"
            )


def generate(cfg: SynthConfig) -> Dataset:
    """Deterministic dataset for the config; per-graph seeds derive from cfg.seed.

    Built as arrays: graph i's background edges are the pairs ``rng.choice``
    draws, in the order drawn, with their ``rng.uniform`` probabilities. A
    planted edge drawn as background takes the planted probability in its
    slot; the other planted edges follow, in planted order.
    """
    n = cfg.num_nodes
    us, vs = np.triu_indices(n, 1)
    total, k = cfg.n_pos + cfg.n_neg, cfg.background_edges_per_graph
    pairs = np.empty((total, k), dtype=np.intp)
    probs = np.empty((total, k))
    for i in range(total):
        rng = np.random.default_rng([cfg.seed, i])
        pairs[i] = rng.choice(len(us), size=k, replace=False)
        probs[i] = rng.uniform(*cfg.background_prob_range, size=k)
    # the pair index of each planted edge (u, v), in the row-major order of us, vs
    pu, pv = np.array(cfg.planted.edges).T
    planted = pu * n - pu * (pu + 1) // 2 + pv - pu - 1
    planted_p = np.where(np.arange(total) < cfg.n_pos, cfg.planted_prob_pos, cfg.planted_prob_neg)
    slot = np.full(len(us), -1)
    slot[planted] = np.arange(len(planted))
    which = slot[pairs]
    graph, at = np.nonzero(which >= 0)
    probs[graph, at] = planted_p[graph]
    missing = np.ones((total, len(planted)), dtype=bool)
    missing[graph, which[graph, at]] = False
    # row by row: the background entries, then the planted edges not drawn
    keep = np.concatenate([np.ones((total, k), dtype=bool), missing], axis=1)
    pairs = np.concatenate([pairs, np.broadcast_to(planted, missing.shape)], axis=1)[keep]
    probs = np.concatenate([probs, np.repeat(planted_p[:, None], len(planted), 1)], axis=1)[keep]
    labels = [1] * cfg.n_pos + [-1] * cfg.n_neg
    ids = [f"pos{i}" for i in range(cfg.n_pos)] + [f"neg{i}" for i in range(cfg.n_neg)]
    return _table_dataset(n, us[pairs], vs[pairs], probs, keep.sum(axis=1), labels, ids)


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
    if name not in _SHAPES:
        raise ValueError(f"unknown preset {name!r}; expected one of {PRESETS}")
    if planted is None:
        planted = _DEFAULT_PLANTED
    return SynthConfig(seed, *_SHAPES[name], planted, planted_prob_pos, planted_prob_neg)


def make_preset(name: str, seed: int = 0, **overrides) -> Dataset:
    """Dataset for a named preset; overrides forward to preset_config, and
    fig2, which is fixed, takes none."""
    if name == "fig2":
        if overrides:
            raise ValueError(f"preset fig2 is fixed; it takes no {', '.join(sorted(overrides))}")
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
