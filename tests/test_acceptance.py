"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criteria are property
checks plus hand-verifiable micro-examples plus desk-scale performance gates;
every tolerance is pinned here.
"""

import itertools
import math
import random
import time
from dataclasses import replace

import numpy as np
import pytest

import ugmine as ug
from conftest import (
    connected_edge_subsets,
    extend_subgraph,
    make_random_dataset,
    random_connected_subgraph,
)

PLANTED3 = ug.Subgraph.from_edges([(0, 1), (1, 2), (2, 3)])

ALL_MEASURES = [
    ug.MeasureSpec("exp"),
    ug.MeasureSpec("median"),
    ug.MeasureSpec("mode"),
    ug.MeasureSpec("phi-pr", phi=0.5),
]

PHI_BY_SCORE = {"conf": 0.5, "ratio": 1.0, "gtest": 1.0, "hsic": 0.01}


def tiny_dataset(rng: random.Random, max_world_bits: int = 13) -> ug.Dataset:
    """Random dataset with <= 6 graphs, <= 3 edges each, both classes present."""
    while True:
        ds = make_random_dataset(rng, n_graphs=rng.randint(2, 6), num_nodes=4, max_edges=3)
        if ds.n_pos >= 1 and ds.n_neg >= 1 and ug.world_count(ds) <= 2**max_world_bits:
            return ds


def measure_grid(ds):
    for kind in ug.SCORE_KINDS:
        for cap in (0.0, 0.01):
            score = ug.ScoreFunction(kind, cap)
            for m in ALL_MEASURES:
                yield score, m


def test_criterion_1_oracle_equivalence():
    rng = random.Random(2024)
    start = time.perf_counter()
    n_datasets = 100
    for _ in range(n_datasets):
        ds = tiny_dataset(rng)
        universe = sorted(ug.union_graph(ds).edges)
        if not universe:
            continue
        g = random_connected_subgraph(rng, universe)
        pos, neg = ug.support_distribution(g, ds.pos), ug.support_distribution(g, ds.neg)
        bf_joint = ug.oracle_joint(g, ds)
        assert np.max(np.abs(ug.joint_distribution(pos, neg) - bf_joint)) <= 1e-9
        for kind in ug.SCORE_KINDS:
            score = ug.ScoreFunction(kind)
            for m in ALL_MEASURES:
                got = ug.measure_value(pos, neg, score, m)
                want = ug.oracle_measure(g, ds, m, score)
                if math.isinf(want) or math.isinf(got):
                    assert got == want, (kind, m.kind, got, want)
                else:
                    assert abs(got - want) <= 1e-9, (kind, m.kind, got, want)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"oracle equivalence took {elapsed:.1f}s"
    print(
        f"\nPASS criterion 1: DP joint and all 4x4 measures match the worlds "
        f"oracle on {n_datasets} random datasets within 1e-9 ({elapsed:.1f}s)"
    )


def test_criterion_2_two_atom_distribution():
    dist = ug.distribution_from_pairs([(0.01, 0.9999), (math.inf, 0.0001)])
    exp = ug.measure_from_distribution(dist, ug.MeasureSpec("exp"))
    phi = ug.measure_from_distribution(dist, ug.MeasureSpec("phi-pr", phi=1.0))
    assert exp == math.inf
    assert phi == 0.0001
    assert ug.measure_from_distribution(dist, ug.MeasureSpec("median")) == 0.01
    print(
        "\nPASS criterion 2: two-atom distribution (0.01 @ 99.99%, +inf @ 0.01%) "
        "gives Exp=+inf and phi-Pr(1)=0.0001 exactly"
    )


def test_criterion_3_example_dataset_reproduction():
    ds = ug.fig2_dataset()
    cfg = ug.MiningConfig(
        t=1, min_sup=0.2, measure=ug.MeasureSpec("exp"), score=ug.ScoreFunction("conf")
    )
    result = ug.mine(ds, cfg)
    best = result.features[0].subgraph
    assert best.edges == ((0, 1), (1, 2))

    # independent confirmation: oracle-score every connected subgraph of the
    # union triangle and take the argmax
    universe = sorted(ug.union_graph(ds).edges)
    candidates = sorted(connected_edge_subsets(universe), key=sorted)
    assert len(candidates) == 7
    scored = {
        tuple(sorted(c)): ug.oracle_measure(
            ug.Subgraph(tuple(sorted(c))), ds, ug.MeasureSpec("exp"), ug.ScoreFunction("conf")
        )
        for c in candidates
    }
    oracle_best = max(scored, key=lambda k: scored[k])
    assert oracle_best == ((0, 1), (1, 2))
    assert scored[oracle_best] == pytest.approx(result.features[0].measure_value, abs=1e-9)
    print(
        "\nPASS criterion 3: top-1 Exp/Confidence feature on the 4-graph example "
        "is {(0,1),(1,2)}, confirmed by oracle scoring of all 7 candidates"
    )


def test_criterion_4_pruning_soundness():
    rng = random.Random(777)
    n_datasets = 20
    for _ in range(n_datasets):
        ds = make_random_dataset(
            rng, n_graphs=rng.randint(8, 12), num_nodes=5, max_edges=4, prob_lo=0.2
        )
        for kind in ug.SCORE_KINDS:
            for mk in ("exp", "median", "mode", "phi-pr"):
                cap = 0.01 if (mk == "exp" and kind in ("ratio", "gtest")) else 0.0
                m = ug.MeasureSpec(mk, PHI_BY_SCORE[kind] if mk == "phi-pr" else None)
                cfg = ug.MiningConfig(
                    t=3, min_sup=0.15, measure=m, score=ug.ScoreFunction(kind, cap)
                )
                pruned = ug.mine(ds, cfg)
                full = ug.mine_exhaustive(ds, cfg)
                assert [f.measure_value for f in pruned.features] == [
                    f.measure_value for f in full.features
                ]
                assert [f.subgraph for f in pruned.features] == [
                    f.subgraph for f in full.features
                ]
                assert pruned.stats.nodes_evaluated <= full.stats.nodes_evaluated

    # bound pruning must strictly cut visits somewhere for exp and phi-pr
    strict = {"exp": 0, "phi-pr": 0}
    rng = random.Random(13)
    for _ in range(10):
        ds = make_random_dataset(
            rng, n_graphs=rng.randint(6, 10), num_nodes=5, max_edges=5, prob_lo=0.2
        )
        for m, score in [
            (ug.MeasureSpec("exp"), ug.ScoreFunction("conf")),
            (ug.MeasureSpec("phi-pr", phi=1.0), ug.ScoreFunction("ratio")),
        ]:
            on = ug.mine(ds, ug.MiningConfig(t=2, min_sup=0.0, measure=m, score=score))
            off = ug.mine(
                ds,
                ug.MiningConfig(
                    t=2, min_sup=0.0, measure=m, score=score, bound_pruning=False
                ),
            )
            assert [f.subgraph for f in on.features] == [f.subgraph for f in off.features]
            if on.stats.nodes_evaluated < off.stats.nodes_evaluated:
                strict[m.kind] += 1
    assert strict["exp"] >= 1 and strict["phi-pr"] >= 1
    print(
        f"\nPASS criterion 4: mine == mine_exhaustive on {n_datasets} datasets x 16 "
        f"measure/score combos; bound pruning strictly cut visits in "
        f"{strict['exp']} Exp and {strict['phi-pr']} phi-Pr runs"
    )


def test_criterion_5_bound_validity():
    rng = random.Random(4242)
    pairs_checked = 0
    while pairs_checked < 40:
        ds = tiny_dataset(rng)
        universe = sorted(ug.union_graph(ds).edges)
        if len(universe) < 2:
            continue
        g = random_connected_subgraph(rng, universe, max_size=2)
        sup = extend_subgraph(rng, g, universe, extra=2)
        if sup is None:
            continue
        assert ug.expected_frequency(sup, ds) <= ug.expected_frequency(g, ds) + 1e-12
        laws_g = ug.support_distribution(g, ds.pos), ug.support_distribution(g, ds.neg)
        laws_s = ug.support_distribution(sup, ds.pos), ug.support_distribution(sup, ds.neg)
        exp = ug.MeasureSpec("exp")
        for kind in ug.SCORE_KINDS:
            for cap in (0.0, 0.01):
                score = ug.ScoreFunction(kind, cap)
                ub = ug.measure_bound(*laws_g, score, exp)
                val = ug.measure_value(*laws_s, score, exp)
                if math.isinf(val):
                    assert math.isinf(ub)
                else:
                    assert ub >= val - 1e-9
                phi = ug.MeasureSpec("phi-pr", PHI_BY_SCORE[kind])
                assert ug.measure_bound(*laws_g, score, phi) >= (
                    ug.measure_value(*laws_s, score, phi) - 1e-9
                )
        pairs_checked += 1
    print(
        f"\nPASS criterion 5: UB-Exp and UB-phi-Pr dominate supergraph measures on "
        f"{pairs_checked} sampled pairs (1e-9); Exp-Freq anti-monotone (1e-12)"
    )


def test_criterion_6_normalization_and_complexity():
    rng = random.Random(6)
    for _ in range(30):
        ds = tiny_dataset(rng)
        universe = sorted(ug.union_graph(ds).edges)
        if not universe:
            continue
        g = random_connected_subgraph(rng, universe)
        pos = ug.support_distribution(g, ds.pos)
        neg = ug.support_distribution(g, ds.neg)
        joint = ug.joint_distribution(pos, neg)
        dist = ug.score_distribution(joint, ug.ScoreFunction("gtest"))
        assert pos.sum() == pytest.approx(1.0, abs=1e-9)
        assert neg.sum() == pytest.approx(1.0, abs=1e-9)
        assert joint.sum() == pytest.approx(1.0, abs=1e-9)
        assert dist.total_mass() == pytest.approx(1.0, abs=1e-9)
    for m in (1, 3, 10, 50, 200):
        counter = ug.MultiplyAddCounter()
        ug.poisson_binomial([rng.random() for _ in range(m)], counter)
        assert counter.count <= m * (m + 1), (m, counter.count)
    print(
        "\nPASS criterion 6: all distributions sum to 1 +- 1e-9; instrumented DP "
        "multiply-adds stay within m(m+1) for m up to 200"
    )


def test_criterion_7_planted_signal_recovery():
    seeds = range(50)
    hits = {"med-conf": 0, "phi-ratio": 0}
    for seed in seeds:
        ds = ug.make_preset(
            "adhd-like", seed=seed, planted=PLANTED3,
            planted_prob_pos=0.9, planted_prob_neg=0.1,
        )
        for name, measure, score in [
            ("med-conf", ug.MeasureSpec("median"), ug.ScoreFunction("conf")),
            ("phi-ratio", ug.MeasureSpec("phi-pr", phi=1.0), ug.ScoreFunction("ratio")),
        ]:
            cfg = ug.MiningConfig(t=10, min_sup=0.2, measure=measure, score=score)
            result = ug.mine(ds, cfg)
            if any(f.subgraph == PLANTED3 for f in result.features):
                hits[name] += 1
    assert hits["med-conf"] >= 45, hits
    assert hits["phi-ratio"] >= 45, hits

    eval_cfg = ug.MiningConfig(
        t=10, min_sup=0.2,
        measure=ug.MeasureSpec("phi-pr", phi=1.0), score=ug.ScoreFunction("ratio"),
    )
    strong = ug.make_preset(
        "adhd-like", seed=901, planted=PLANTED3, planted_prob_pos=0.9, planted_prob_neg=0.1
    )
    strong_report = ug.evaluate(strong, eval_cfg, repeats=5, seed=31)
    null = ug.make_preset(
        "adhd-like", seed=901, planted=PLANTED3, planted_prob_pos=0.5, planted_prob_neg=0.5
    )
    null_report = ug.evaluate(null, eval_cfg, repeats=5, seed=31)
    assert strong_report.mean_error < 0.2, strong_report
    assert abs(null_report.mean_error - 0.5) <= 0.15, null_report
    print(
        f"\nPASS criterion 7: planted 3-edge subgraph in top-10 for Med-Conf "
        f"{hits['med-conf']}/50 and phi-Pr-Ratio {hits['phi-ratio']}/50 seeds; "
        f"error {strong_report.mean_error:.3f} (signal) vs "
        f"{null_report.mean_error:.3f} (control)"
    )


def test_criterion_8_desk_scale_performance():
    cfg = ug.MiningConfig(
        t=100, min_sup=0.2,
        measure=ug.MeasureSpec("phi-pr", phi=1.0), score=ug.ScoreFunction("ratio"),
    )
    times = {}
    for n_per_class in (25, 50, 100):
        synth = replace(
            ug.preset_config("adhd-like", seed=8, planted=PLANTED3),
            n_pos=n_per_class, n_neg=n_per_class,
        )
        ds = ug.generate(synth)
        start = time.perf_counter()
        result = ug.mine(ds, cfg)
        times[2 * n_per_class] = time.perf_counter() - start
        assert result.features, "mining returned nothing on the planted preset"
    assert times[200] < 300.0, times
    ratio = times[200] / max(times[50], 0.05)
    assert ratio < 12.0, times  # quadratic growth in graph count would give ~16
    print(
        f"\nPASS criterion 8: full-size mine in {times[200]:.2f}s (< 300s); wall "
        f"times {times[50]:.2f}/{times[100]:.2f}/{times[200]:.2f}s for 50/100/200 "
        f"graphs, growth ratio {ratio:.1f} (sub-quadratic)"
    )
