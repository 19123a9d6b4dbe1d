"""Discriminative subgraph mining for uncertain graph datasets.

Graphs share a fixed node universe; each edge exists independently with a
known probability. The library computes exact distributions of discrimination
scores over all possible worlds via dynamic programming, mines top-t
subgraph features with branch-and-bound pruning, and ships a brute-force
oracle, a synthetic data generator, and a classification harness.
"""

from .classify import EvalReport, FeatureMatrix, evaluate, export_csv, featurize
from .distribution import (
    MEASURE_KINDS,
    MeasureSpec,
    MultiplyAddCounter,
    ScoreDistribution,
    distribution_from_pairs,
    expected_frequency,
    joint_distribution,
    measure_bound,
    measure_from_distribution,
    measure_median,
    measure_mode,
    measure_value,
    poisson_binomial,
    score_distribution,
    support_distribution,
)
from .graphs import (
    CertainGraph,
    Dataset,
    DatasetFormatError,
    Edge,
    Subgraph,
    UncertainGraph,
    containment_probability,
    contains,
    make_edge,
    parse_dataset,
    serialize_dataset,
    union_graph,
)
from .miner import (
    MinedFeature,
    MiningConfig,
    MiningResult,
    SearchStats,
    canonical_parent,
    children,
    mine,
    mine_exhaustive,
)
from .oracle import (
    DEFAULT_MAX_WORLDS,
    World,
    WorldCountError,
    enumerate_worlds,
    oracle_joint,
    oracle_measure,
    world_count,
)
from .scores import (
    SCORE_KINDS,
    ScoreFunction,
    eval_score,
    score_grid,
    upper_envelope,
)
from .synth import (
    PRESETS,
    DatasetStats,
    SynthConfig,
    dataset_stats,
    fig2_dataset,
    generate,
    make_preset,
    preset_config,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
