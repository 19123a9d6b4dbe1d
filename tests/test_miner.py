import collections
import functools
import itertools
import json
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ugmine as ug
import ugmine.miner as miner
from ugmine.distribution import _batched_support
from conftest import (
    DATA_DIR,
    _subset_connected,
    all_pairs,
    connected_edge_subsets,
    eager_search,
    make_random_dataset,
    random_connected_subgraph,
    reference_children,
)

TRIANGLE = ug.CertainGraph(3, frozenset({(0, 1), (0, 2), (1, 2)}))
PATH_UNIVERSE = ug.CertainGraph(3, frozenset({(0, 1), (1, 2)}))


def walk_tree(universe):
    """All (parent, child) pairs of the reverse-search tree."""
    out = []
    stack = [None]
    while stack:
        node = stack.pop()
        for child in ug.children(node, universe):
            out.append((node, child))
            stack.append(child)
    return out


def simple_cfg(t=3, min_sup=0.0, measure=None, score=None, **kw):
    return ug.MiningConfig(
        t=t,
        min_sup=min_sup,
        measure=measure or ug.MeasureSpec("exp"),
        score=score or ug.ScoreFunction("conf"),
        **kw,
    )


class TestMiningConfig:
    @pytest.mark.parametrize(
        "field, value",
        [("t", 2.5), ("t", True), ("max_edges", 1.5), ("max_edges", True), ("min_sup", True)],
    )
    def test_names_bad_field(self, field, value):
        """A fractional or bool count, or a bool min_sup, is refused: ``t=2.5``
        once never set the threshold, and ``max_edges=1.5`` let 2-edge features through."""
        with pytest.raises(ValueError, match=f"^{field} must") as info:
            simple_cfg(**{field: value})
        assert "\n" not in str(info.value)

    def test_normalizes_counts(self):
        cfg = simple_cfg(t=np.int64(3), max_edges=np.int32(2))
        assert type(cfg.t) is int and cfg.t == 3
        assert type(cfg.max_edges) is int and cfg.max_edges == 2


class TestCanonicalParent:
    def test_two_edge_path(self):
        g = ug.Subgraph.from_edges([(0, 1), (1, 2)])
        assert ug.canonical_parent(g) == ug.Subgraph.from_edges([(0, 1)])

    def test_triangle(self):
        g = ug.Subgraph.from_edges([(0, 1), (0, 2), (1, 2)])
        assert ug.canonical_parent(g) == ug.Subgraph.from_edges([(0, 1), (0, 2)])

    def test_single_edge_is_root_child(self):
        assert ug.canonical_parent(ug.Subgraph.from_edges([(0, 1)])) is None

    def test_parent_always_exists(self):
        rng = random.Random(3)
        from conftest import random_connected_subgraph, all_pairs

        for _ in range(100):
            g = random_connected_subgraph(rng, all_pairs(5), max_size=6)
            if len(g.edges) > 1:
                parent = ug.canonical_parent(g)
                assert parent is not None
                assert set(parent.edges) < set(g.edges)


class TestChildren:
    def test_root_children_are_single_edges(self):
        kids = ug.children(None, TRIANGLE)
        assert [k.edges for k in kids] == [((0, 1),), ((0, 2),), ((1, 2),)]

    def test_triangle_tree_has_seven_nodes(self):
        assert len(walk_tree(TRIANGLE)) == 7

    def test_path_tree_has_three_nodes(self):
        assert len(walk_tree(PATH_UNIVERSE)) == 3

    def test_ancestor_property(self):
        for parent, child in walk_tree(TRIANGLE):
            if parent is not None:
                assert set(parent.edges) < set(child.edges)
            assert ug.canonical_parent(child) == parent

    def test_enumeration_complete_and_unique(self):
        rng = random.Random(7)
        for trial in range(15):
            num_nodes = rng.randint(3, 6)
            pairs = [
                (u, v)
                for u in range(num_nodes)
                for v in range(u + 1, num_nodes)
            ]
            k = rng.randint(1, min(10, len(pairs)))
            edges = frozenset(rng.sample(pairs, k))
            universe = ug.CertainGraph(num_nodes, edges)
            visited = [child for _, child in walk_tree(universe)]
            expected = connected_edge_subsets(sorted(edges))
            assert len(visited) == len(expected)
            assert {frozenset(v.edges) for v in visited} == expected

    def test_matches_reference_definition(self):
        rng = random.Random(29)
        for _ in range(40):
            num_nodes = rng.randint(3, 7)
            pairs = all_pairs(num_nodes)
            edges = rng.sample(pairs, rng.randint(1, min(12, len(pairs))))
            universe = ug.CertainGraph(num_nodes, frozenset(edges))
            assert list(ug.children(None, universe)) == [ug.Subgraph((e,)) for e in sorted(edges)]
            for _ in range(10):
                parent = random_connected_subgraph(rng, sorted(edges), max_size=6)
                kids = ug.children(parent, universe)
                assert list(kids) == reference_children(parent, universe)
                for k in kids:
                    assert ug.Subgraph(k.edges) == k


def cyclic_universe(rng):
    """Rings of 3-5 nodes joined by bridge paths, plus a few chords."""
    edges, rings, top = set(), [], 0
    for _ in range(rng.randint(2, 4)):
        ring = list(range(top, top + rng.randint(3, 5)))
        top = ring[-1] + 1
        edges |= {ug.make_edge(a, b) for a, b in zip(ring, ring[1:] + ring[:1])}
        if rings:
            a, b = rng.choice(rng.choice(rings)), rng.choice(ring)
            if rng.random() < 0.5:
                edges.add(ug.make_edge(a, b))
            else:
                edges |= {ug.make_edge(a, top), ug.make_edge(top, b)}
                top += 1
        rings.append(ring)
    pairs = all_pairs(top)
    edges |= set(rng.sample(pairs, rng.randint(0, 2)))
    return ug.CertainGraph(top, frozenset(edges))


class TestThresholdRule:
    """Children accepted by one threshold per attach point equal the
    canonical_parent definition, in order."""

    @staticmethod
    def universes():
        rng = random.Random(43)
        for preset in ("adhd-like", "adni-like", "hiv-like"):
            universe = ug.union_graph(ug.make_preset(preset, seed=0))
            yield rng, universe, 40
        for _ in range(40):
            yield rng, cyclic_universe(rng), 8

    def test_matches_definition(self):
        chords = bridged = one_edge = trees = cyclic = 0
        for rng, universe, count in self.universes():
            edges = sorted(universe.edges)
            for _ in range(count):
                parent = random_connected_subgraph(rng, edges, max_size=6)
                nodes = parent.nodes
                expected = reference_children(parent, universe)
                assert list(ug.children(parent, universe)) == expected
                # one-edge parents take the shortcut, the others _threshold
                one_edge += len(parent.edges) == 1
                trees += len(parent.edges) > 1 and len(parent.edges) + 1 == len(nodes)
                cyclic += len(parent.edges) >= len(nodes)
                chords += sum(
                    1 for e in universe.extensions(parent.edges)
                    if e[0] in nodes and e[1] in nodes
                )
                # a non-pendant bridge: dropping it disconnects the rest
                bridged += len(parent.edges) > 1 and any(
                    not _subset_connected(parent.edges[:i] + parent.edges[i + 1 :])
                    for i in range(len(parent.edges))
                )
        # the draw covers the attach points that need their own threshold,
        # the one-edge shortcut and both tree and cyclic parents of
        # _threshold (82, 309 and 49 parents at this seed)
        assert chords > 100 and bridged > 20
        assert one_edge > 40 and trees > 150 and cyclic > 25


class TestMine:
    def test_fig2_top_feature(self, fig2):
        cfg = simple_cfg(t=1, min_sup=0.2)
        result = ug.mine(fig2, cfg)
        assert len(result.features) == 1
        assert result.features[0].subgraph.edges == ((0, 1), (1, 2))
        assert result.features[0].exp_freq == pytest.approx(0.4025, abs=1e-12)

    def test_min_sup_one_empty(self, fig2):
        result = ug.mine(fig2, simple_cfg(t=5, min_sup=1.0))
        assert result.features == ()

    def test_t_larger_than_survivors(self, fig2):
        result = ug.mine(fig2, simple_cfg(t=50, min_sup=0.2))
        got = {f.subgraph.edges for f in result.features}
        # survivors of min_sup 0.2: the two frequent edges and their join
        assert got == {((0, 1),), ((1, 2),), ((0, 1), (1, 2))}

    def test_requires_both_classes(self, fig2):
        ds = ug.Dataset(3, fig2.graphs, (1, 1, 1, 1))
        with pytest.raises(ValueError, match="class"):
            ug.mine(ds, simple_cfg())

    def test_sorted_by_measure_descending(self, fig2):
        result = ug.mine(fig2, simple_cfg(t=10, min_sup=0.0))
        values = [f.measure_value for f in result.features]
        assert values == sorted(values, reverse=True)

    def test_max_edges_caps_depth(self, fig2):
        result = ug.mine(fig2, simple_cfg(t=10, min_sup=0.0, max_edges=1))
        assert all(len(f.subgraph.edges) == 1 for f in result.features)
        assert result.stats.nodes_evaluated == 3

    def test_keep_joints(self, fig2):
        feature = ug.mine(fig2, simple_cfg(t=1, min_sup=0.2)).features[0]
        assert feature.joint.shape == (3, 3)
        assert feature.joint.sum() == pytest.approx(1.0, abs=1e-9)
        bf = ug.oracle_joint(feature.subgraph, fig2)
        assert np.max(np.abs(feature.joint - bf)) <= 1e-9

    def test_empty_union_graph(self):
        g = ug.UncertainGraph(3, {})
        ds = ug.Dataset(3, (g, g), (1, -1))
        result = ug.mine(ds, simple_cfg())
        assert result.features == ()
        assert result.stats.nodes_evaluated == 0

    def test_theta_monotone(self, fig2):
        result = ug.mine(fig2, simple_cfg(t=2, min_sup=0.0))
        trace = result.stats.theta_trace
        assert trace
        indices = [i for i, _ in trace]
        thetas = [theta for _, theta in trace]
        assert all(a < b for a, b in zip(indices, indices[1:]))
        assert all(a <= b for a, b in zip(thetas, thetas[1:]))
        assert 1 <= indices[0] and indices[-1] <= result.stats.nodes_evaluated

    def test_deterministic(self, fig2):
        cfg = simple_cfg(t=4, min_sup=0.1)
        r1 = ug.mine(fig2, cfg)
        r2 = ug.mine(fig2, cfg)
        assert r1.features == r2.features
        assert r1.stats.nodes_evaluated == r2.stats.nodes_evaluated

    def test_exhaustive_visits_every_tree_node(self, fig2, monkeypatch):
        """``mine_exhaustive`` builds and counts every connected subgraph of
        the union graph up to max_edges and prunes none, also those whose
        rows underflow to 0 and those at or below min_sup."""
        # union graph is the triangle, whose tree has exactly 7 nodes
        result = ug.mine_exhaustive(fig2, simple_cfg(t=1, min_sup=0.2))
        assert result.stats.nodes_evaluated == 7
        assert result.stats.frequency_pruned == 0
        assert result.stats.bound_pruned == 0
        rng = random.Random(97)
        phi = {"conf": 0.5, "ratio": 1.0, "gtest": 1.0, "hsic": 0.01}
        underflow = infrequent = 0
        for _ in range(4):
            n_graphs = rng.randint(2, 6)
            graphs = [
                ug.UncertainGraph(5, {
                    e: edge_probability(rng) for e in rng.sample(all_pairs(5), rng.randint(0, 6))
                })
                for _ in range(n_graphs)
            ]
            labels = (1, -1) + tuple(rng.choice([1, -1]) for _ in range(n_graphs - 2))
            ds = ug.Dataset(5, tuple(graphs), labels)
            subsets = connected_edge_subsets(sorted(ug.union_graph(ds).edges))
            # a subgraph held by some graph whose containment product is 0 there
            underflow += sum(
                any(
                    all(e in g.edges for e in sub) and math.prod(g.edges[e] for e in sub) == 0.0
                    for g in ds.graphs
                )
                for sub in subsets
            )
            for kind, mk, min_sup, max_edges in itertools.product(
                ug.SCORE_KINDS, ug.MEASURE_KINDS, (0.0, 0.3), (None, 2)
            ):
                measure = ug.MeasureSpec(mk, phi[kind] if mk == "phi-pr" else None)
                cfg = ug.MiningConfig(
                    t=2, min_sup=min_sup, measure=measure,
                    score=ug.ScoreFunction(kind), max_edges=max_edges,
                )
                size = max_edges or math.inf
                want = sum(len(sub) <= size for sub in subsets)
                for window, cells in TestLookAhead.LIMITS:
                    monkeypatch.setattr(miner, "_WINDOW", window)
                    monkeypatch.setattr(miner, "_CELLS", cells)
                    stats = ug.mine_exhaustive(ds, cfg).stats
                    assert [stats.nodes_evaluated, stats.frequency_pruned, stats.bound_pruned] == [
                        want, 0, 0
                    ]
                infrequent += ug.mine(ds, cfg).stats.frequency_pruned
        assert underflow > 0 and infrequent > 0


class TestMinedValuesMatchOracle:
    def test_every_feature_every_measure_and_score(self):
        """The value ``mine`` reports for each feature is its brute-force measure."""
        rng = random.Random(61)
        phi = {"conf": 0.5, "ratio": 1.0, "gtest": 1.0, "hsic": 0.01}
        checked = infinite = 0
        for _ in range(20):
            ds = make_random_dataset(rng, n_graphs=rng.randint(2, 5), num_nodes=4, max_edges=2)
            for kind in ug.SCORE_KINDS:
                for cap in (0.0, 0.01):
                    score = ug.ScoreFunction(kind, cap)
                    for mk in ("exp", "median", "mode", "phi-pr"):
                        measure = ug.MeasureSpec(mk, phi[kind] if mk == "phi-pr" else None)
                        cfg = ug.MiningConfig(t=10**6, min_sup=0.0, measure=measure, score=score)
                        for f in ug.mine(ds, cfg).features:
                            want = ug.oracle_measure(f.subgraph, ds, measure, score)
                            if math.isinf(want) or math.isinf(f.measure_value):
                                assert f.measure_value == want, (f.subgraph, mk, kind, cap)
                                infinite += 1
                            else:
                                assert abs(f.measure_value - want) <= 1e-9, (f.subgraph, mk, kind)
                            checked += 1
        assert checked > 1000 and 0 < infinite < checked


def _bitwise(result):
    """A result's features, values, distributions and stats, compared bit for bit."""
    features = [
        (
            f.subgraph.edges,
            f.measure_value.hex(),
            f.exp_freq.hex(),
            f.pos_dist.tobytes(),
            f.neg_dist.tobytes(),
        )
        for f in result.features
    ]
    stats = result.stats
    trace = [(n, theta.hex()) for n, theta in stats.theta_trace]
    return features, stats.nodes_evaluated, stats.frequency_pruned, stats.bound_pruned, trace


class TestLookAhead:
    """Child lists evaluated ahead, in one batch with the popped node's, change
    no output and no count, whatever the window and the cell budget."""

    LIMITS = [(1, 1), (miner._WINDOW, miner._CELLS), (10**6, 10**12)]

    def test_independent_of_batch_limits(self, monkeypatch):
        calls = [0]
        real = miner.children

        def counted(parent, universe):
            calls[0] += 1
            return real(parent, universe)

        monkeypatch.setattr(miner, "children", counted)
        rng = random.Random(67)
        phi = {"conf": 0.5, "ratio": 1.0, "gtest": 1.0, "hsic": 0.01}
        cut_ahead = 0
        for _ in range(10):
            # graphs of up to 4 edges, so that rows held by batch nodes are read
            ds = make_random_dataset(rng, n_graphs=rng.randint(2, 5), num_nodes=4, max_edges=4)
            for kind in ug.SCORE_KINDS:
                for mk in ("exp", "median", "mode", "phi-pr"):
                    # a small t raises theta early; a huge one reports every feature
                    for t, max_edges in itertools.product((2, 10**6), (None, 2)):
                        measure = ug.MeasureSpec(mk, phi[kind] if mk == "phi-pr" else None)
                        cfg = ug.MiningConfig(
                            t=t, min_sup=0.2, measure=measure,
                            score=ug.ScoreFunction(kind), max_edges=max_edges,
                        )
                        features, *counts = eager_search(ds, cfg)
                        for run in (ug.mine, ug.mine_exhaustive):
                            seen = []
                            for window, cells in self.LIMITS:
                                monkeypatch.setattr(miner, "_WINDOW", window)
                                monkeypatch.setattr(miner, "_CELLS", cells)
                                calls[0] = 0
                                result = run(ds, cfg)
                                seen.append((_bitwise(result), calls[0]))
                            assert all(got == seen[0][0] for got, _ in seen)
                            if run is ug.mine:
                                stats = result.stats
                                assert [
                                    stats.nodes_evaluated, stats.frequency_pruned,
                                    stats.bound_pruned, stats.theta_trace,
                                ] == counts
                                assert [
                                    (f.subgraph.edges, f.measure_value) for f in result.features
                                ] == features
                            # without look-ahead, children runs once per expansion;
                            # any extra call evaluated a list for a node later cut
                            assert seen[-1][1] >= seen[0][1]
                            cut_ahead += seen[-1][1] > seen[0][1]
        assert cut_ahead > 0

    def test_exported_laws(self, monkeypatch):
        """The laws computed at export are bit for bit those of
        ``mine_exhaustive``, and of ``support_distribution`` for a feature of
        at most two edges, whose row is the same ascending product."""
        rng = random.Random(89)
        phi = {"conf": 0.5, "ratio": 1.0, "gtest": 1.0, "hsic": 0.01}
        short = deep = 0
        for _ in range(8):
            ds = make_random_dataset(rng, n_graphs=rng.randint(2, 6), num_nodes=4, max_edges=4)
            for kind, mk, t in itertools.product(ug.SCORE_KINDS, ug.MEASURE_KINDS, (2, 10**6)):
                measure = ug.MeasureSpec(mk, phi[kind] if mk == "phi-pr" else None)
                cfg = ug.MiningConfig(
                    t=t, min_sup=0.1, measure=measure, score=ug.ScoreFunction(kind)
                )
                for window, cells in self.LIMITS:
                    monkeypatch.setattr(miner, "_WINDOW", window)
                    monkeypatch.setattr(miner, "_CELLS", cells)
                    pruned, full = [
                        [(f.subgraph, f.pos_dist.tobytes(), f.neg_dist.tobytes())
                         for f in run(ds, cfg).features]
                        for run in (ug.mine, ug.mine_exhaustive)
                    ]
                    assert pruned == full
                    for sub, pos, neg in pruned:
                        if len(sub.edges) > 2:
                            deep += 1
                            continue
                        assert pos == ug.support_distribution(sub, ds.pos).tobytes()
                        assert neg == ug.support_distribution(sub, ds.neg).tobytes()
                        short += 1
        assert short > 1000 and deep > 100


def edge_probability(rng):
    """A probability for the count test: certain edges, subnormals whose
    products underflow to 0, and ordinary values."""
    return rng.choice([1.0, 1.0, 5e-324, 1e-310, rng.uniform(0.05, 1.0)])


def sparse_rows(rng, n, n_graphs):
    """``n`` rows of ``n_graphs`` entries, 0 with probability 0.4."""
    return np.array([
        [edge_probability(rng) if rng.random() < 0.6 else 0.0 for _ in range(n_graphs)]
        for _ in range(n)
    ])


class TestCountTest:
    """``mine`` multiplies out only the children that share more than min_sup
    of the graphs with their parent; it drops no child above min_sup and
    changes no output and no count."""

    def test_keeps_every_frequent_row(self):
        rng = random.Random(71)
        dropped = 0
        # graph counts on both sides of a 64-bit word boundary
        for n_graphs in (1, 63, 64, 65, 129):
            parents, edges = sparse_rows(rng, 4, n_graphs), sparse_rows(rng, 40, n_graphs)
            owner = np.array([rng.randrange(4) for _ in range(40)])
            means = (parents[owner] * edges).mean(axis=1)
            words = miner._nonzero_words(edges)
            for k in range(n_graphs + 1):
                min_sup = k / n_graphs
                kept = miner._may_be_frequent(parents, owner, words, min_sup)
                assert set(np.flatnonzero(means > min_sup)) <= set(kept.tolist())
                dropped += len(edges) - len(kept)
        assert dropped > 0

    def test_mine_unchanged(self, monkeypatch):
        calls = [0, 0]  # rows tested, rows dropped
        real = miner._may_be_frequent

        def counted(parents, owner, edges, min_sup):
            kept = real(parents, owner, edges, min_sup)
            calls[0] += len(owner)
            calls[1] += len(owner) - len(kept)
            return kept

        monkeypatch.setattr(miner, "_may_be_frequent", counted)
        rng = random.Random(73)
        pairs = all_pairs(4)
        for n_graphs in (2, 63, 64, 65, 129):
            graphs = [
                ug.UncertainGraph(4, {e: edge_probability(rng) for e in rng.sample(pairs, 4)})
                for _ in range(n_graphs)
            ]
            labels = [1, -1] + [rng.choice([1, -1]) for _ in range(n_graphs - 2)]
            ds = ug.Dataset(4, tuple(graphs), tuple(labels))
            for k in (1, n_graphs // 4, n_graphs // 2):
                for measure, kind in (("phi-pr", "ratio"), ("exp", "conf"), ("median", "hsic")):
                    cfg = ug.MiningConfig(
                        t=3, min_sup=k / n_graphs,
                        measure=ug.MeasureSpec(measure, 1.0 if measure == "phi-pr" else None),
                        score=ug.ScoreFunction(kind),
                    )
                    features, *counts = eager_search(ds, cfg)
                    for window, cells in TestLookAhead.LIMITS:
                        monkeypatch.setattr(miner, "_WINDOW", window)
                        monkeypatch.setattr(miner, "_CELLS", cells)
                        result = ug.mine(ds, cfg)
                        stats = result.stats
                        assert [
                            stats.nodes_evaluated, stats.frequency_pruned,
                            stats.bound_pruned, stats.theta_trace,
                        ] == counts
                        assert [
                            (f.subgraph.edges, f.measure_value) for f in result.features
                        ] == features
                    full = ug.mine_exhaustive(ds, cfg)
                    assert [
                        (f.subgraph.edges, f.measure_value, f.exp_freq) for f in result.features
                    ] == [(f.subgraph.edges, f.measure_value, f.exp_freq) for f in full.features]
        assert calls[1] > 0 and calls[1] < calls[0]


class TestStore:
    """``mine`` builds probability rows only for the store edges, those nonzero
    in more than min_sup of the graphs; it changes no output and no count."""

    @staticmethod
    def boundary_dataset(rng, n_graphs, k):
        """The edges of K5, each nonzero in k - 1, k, k + 1 or any number of
        the graphs, with probabilities 1.0, 5e-324, uniform draws or a mix."""
        order = rng.sample(range(n_graphs), n_graphs)
        graphs = [{} for _ in range(n_graphs)]
        for e in all_pairs(5):
            count = rng.choice([k - 1, k, k + 1, rng.randint(0, n_graphs)])
            count = min(n_graphs, max(0, count))
            # edges that share a prefix of ``order`` keep deeper subgraphs frequent
            where = order[:count] if rng.random() < 0.5 else rng.sample(range(n_graphs), count)
            kind = rng.choice([1.0, 5e-324, "uniform", "mixed"])
            for i in where:
                p = kind if kind != "mixed" else rng.choice([1.0, 5e-324, "uniform"])
                graphs[i][e] = rng.uniform(0.05, 1.0) if p == "uniform" else p
        labels = (1, -1) + tuple(rng.choice([1, -1]) for _ in range(n_graphs - 2))
        return ug.Dataset(5, tuple(ug.UncertainGraph(5, g) for g in graphs), labels)

    @staticmethod
    def spy_rows(monkeypatch):
        """The edges given to each ``_edge_rows`` call of the search; these
        datasets build their own edge tables, so table columns are union columns."""
        built = []
        real = miner._edge_rows

        def spy(dataset, cols):
            built.append(cols.tolist())
            return real(dataset, cols)

        monkeypatch.setattr(miner, "_edge_rows", spy)
        return built

    def test_mine_unchanged_at_the_store_boundary(self, monkeypatch):
        built = self.spy_rows(monkeypatch)
        rng = random.Random(83)
        left_out = deep = 0
        # graph counts on both sides of a 64-bit word boundary; mining needs
        # a graph of each class, so two graphs is the smallest dataset
        for n_graphs in (2, 63, 64, 65, 129):
            for k in sorted({1, n_graphs // 4, n_graphs // 2}):
                ds = self.boundary_dataset(rng, n_graphs, k)
                edges = ug.union_graph(ds).columns.edges
                counts = [sum(e in g.edges for g in ds.graphs) for e in edges]
                store = [j for j, c in enumerate(counts) if c > k]
                left_out += len(edges) - len(store)
                for measure, kind in (("phi-pr", "ratio"), ("exp", "conf"), ("median", "hsic")):
                    cfg = ug.MiningConfig(
                        t=3, min_sup=k / n_graphs,
                        measure=ug.MeasureSpec(measure, 1.0 if measure == "phi-pr" else None),
                        score=ug.ScoreFunction(kind),
                    )
                    features, *counts = eager_search(ds, cfg)
                    built.clear()
                    full = _bitwise(ug.mine_exhaustive(ds, cfg))[0]
                    assert built == [list(range(len(edges)))]
                    for window, cells in TestLookAhead.LIMITS:
                        monkeypatch.setattr(miner, "_WINDOW", window)
                        monkeypatch.setattr(miner, "_CELLS", cells)
                        built.clear()
                        result = ug.mine(ds, cfg)
                        assert built == [store]
                        stats = result.stats
                        assert [
                            stats.nodes_evaluated, stats.frequency_pruned,
                            stats.bound_pruned, stats.theta_trace,
                        ] == counts
                        assert [
                            (f.subgraph.edges, f.measure_value) for f in result.features
                        ] == features
                        assert _bitwise(result)[0] == full
                    deep += any(len(f.subgraph.edges) > 1 for f in result.features)
        assert left_out > 0 and deep > 0

    def test_walk_keeps_the_frequent_root_rows(self, monkeypatch):
        """After the root batch the walk keeps only the rows of the frequent
        roots, the edges whose mean exceeds min_sup, and not those of every
        edge the count keeps; ``mine_exhaustive`` keeps every edge's row. The
        store's bitsets are read off exactly those rows, in the first
        ``_nonzero_words`` call, made before any look-ahead batch."""
        calls = []
        real = miner._nonzero_words

        def spy(rows):
            calls.append(rows.copy())
            return real(rows)

        monkeypatch.setattr(miner, "_nonzero_words", spy)
        rng = random.Random(101)
        count_only = 0
        for n_graphs in (2, 63, 64, 65, 129):
            for k in sorted({1, n_graphs // 4, n_graphs // 2}):
                ds = self.boundary_dataset(rng, n_graphs, k)
                edges = ug.union_graph(ds).columns.edges
                if not edges:
                    continue
                matrix = np.array([[g.edges.get(e, 0.0) for g in ds.graphs] for e in edges])
                counts = np.array([sum(e in g.edges for g in ds.graphs) for e in edges])
                frequent = matrix.mean(axis=1) > k / n_graphs
                count_only += int(np.sum((counts > k) & ~frequent))
                for max_edges in (None, 1):
                    cfg = ug.MiningConfig(
                        t=3, min_sup=k / n_graphs, measure=ug.MeasureSpec("exp"),
                        score=ug.ScoreFunction("conf"), max_edges=max_edges,
                    )
                    for run, rows in ((ug.mine, matrix[frequent]), (ug.mine_exhaustive, matrix)):
                        calls.clear()
                        run(ds, cfg)
                        assert calls[0].shape == rows.shape and np.array_equal(calls[0], rows)
                        if max_edges == 1:
                            assert len(calls) == 1  # no node is expanded
        assert count_only > 0

    def test_shallow_search_densifies_count_frequent_edges(self, monkeypatch):
        built = self.spy_rows(monkeypatch)
        ds = ug.make_preset("adhd-like", seed=0)
        cfg = ug.MiningConfig(
            t=10, min_sup=0.2, measure=ug.MeasureSpec("median"), score=ug.ScoreFunction("conf")
        )
        ug.mine(ds, cfg)
        edges = ug.union_graph(ds).columns.edges
        nonzero = collections.Counter(e for g in ds.graphs for e in g.edges)
        store = [j for j, e in enumerate(edges) if nonzero[e] / len(ds) > 0.2]
        assert built == [store]
        assert 0 < len(store) < len(edges) / 100


def all_configs(t=3, min_sup=0.15):
    for kind in ug.SCORE_KINDS:
        for measure in ("exp", "median", "mode", "phi-pr"):
            cap = 0.01 if (measure == "exp" and kind in ("ratio", "gtest")) else 0.0
            phi = {"conf": 0.5, "ratio": 1.0, "gtest": 1.0, "hsic": 0.01}[kind]
            yield ug.MiningConfig(
                t=t,
                min_sup=min_sup,
                measure=ug.MeasureSpec(measure, phi if measure == "phi-pr" else None),
                score=ug.ScoreFunction(kind, cap),
            )


class TestPruneSoundness:
    def test_mine_equals_exhaustive(self):
        rng = random.Random(13)
        for trial in range(6):
            ds = make_random_dataset(
                rng, n_graphs=rng.randint(4, 8), num_nodes=4, max_edges=4, prob_lo=0.2
            )
            for cfg in all_configs():
                pruned = ug.mine(ds, cfg)
                full = ug.mine_exhaustive(ds, cfg)
                assert [f.subgraph for f in pruned.features] == [
                    f.subgraph for f in full.features
                ]
                assert [f.measure_value for f in pruned.features] == [
                    f.measure_value for f in full.features
                ]
                assert pruned.stats.nodes_evaluated <= full.stats.nodes_evaluated

    def test_ties_at_one_with_many_graphs(self):
        # 129 graphs per class. Every positive graph holds the edges surely,
        # so a feature with an edge no negative graph has is worth exactly
        # 1.0, while its ancestors' bounds sum a negative law of 129 inexact
        # masses, which can round to just below 1.0.
        rng = random.Random(29)
        pairs = all_pairs(5)
        ties = 0
        for _ in range(6):
            edges = rng.sample(pairs, 6)
            absent = set(rng.sample(edges, 2))
            graphs = [ug.UncertainGraph(5, dict.fromkeys(edges, 1.0)) for _ in range(129)]
            graphs += [
                ug.UncertainGraph(5, {e: rng.uniform(0.05, 0.95) for e in edges if e not in absent})
                for _ in range(129)
            ]
            ds = ug.Dataset(5, tuple(graphs), (1,) * 129 + (-1,) * 129)
            for t in (1, 3, 6):
                cfg = ug.MiningConfig(
                    t=t, min_sup=0.1, measure=ug.MeasureSpec("phi-pr", 1.0),
                    score=ug.ScoreFunction("ratio"),
                )
                pruned, full = ug.mine(ds, cfg), ug.mine_exhaustive(ds, cfg)
                assert [(f.subgraph.edges, f.measure_value) for f in pruned.features] == [
                    (f.subgraph.edges, f.measure_value) for f in full.features
                ]
                _, *counts = eager_search(ds, cfg)
                stats = pruned.stats
                assert [
                    stats.nodes_evaluated, stats.frequency_pruned,
                    stats.bound_pruned, stats.theta_trace,
                ] == counts
                ties += len(full.features) == t and full.features[-1].measure_value == 1.0
        assert ties >= 6

    def test_bound_pruning_reduces_visits(self):
        # planted signal concentrates the measure, letting the bound cut branches
        ds = ug.make_preset(
            "adhd-like",
            seed=5,
            planted=ug.Subgraph.from_edges([(0, 1), (1, 2)]),
        )
        # shrink to a small slice to keep this quick
        idx = list(range(10)) + list(range(100, 110))
        small = ug.Dataset(
            ds.num_nodes,
            tuple(ds.graphs[i] for i in idx),
            tuple(ds.labels[i] for i in idx),
        )
        for measure, score in [
            (ug.MeasureSpec("exp"), ug.ScoreFunction("conf")),
            (ug.MeasureSpec("phi-pr", phi=1.0), ug.ScoreFunction("ratio")),
        ]:
            cfg = ug.MiningConfig(t=2, min_sup=0.05, measure=measure, score=score)
            with_bound = ug.mine(small, cfg)
            # TestCounts pins the bounded reference walk's counts to mine's
            without, evaluated, *_ = eager_search(small, cfg, bounded=False)
            assert [
                (f.subgraph.edges, f.measure_value) for f in with_bound.features
            ] == without
            assert with_bound.stats.nodes_evaluated <= evaluated


class TestBatchedSupport:
    def test_matches_convolution_reference(self):
        rng = random.Random(17)
        probs = np.array([[rng.random() for _ in range(8)] for _ in range(5)])
        batched = _batched_support(probs)
        for i in range(probs.shape[0]):
            reference = functools.reduce(np.convolve, [[1.0 - p, p] for p in probs[i]])
            assert np.max(np.abs(batched[i] - reference)) <= 1e-12

    def test_multiply_adds_exact(self):
        rng = random.Random(21)
        for k, m in [(1, 1), (1, 7), (4, 9), (15, 30)]:
            counter = ug.MultiplyAddCounter()
            probs = np.array([[rng.random() for _ in range(m)] for _ in range(k)])
            _batched_support(probs, counter)
            assert counter.count == k * m * (m + 1)

    def test_rows_normalized(self):
        rng = random.Random(19)
        probs = np.array([[rng.random() for _ in range(12)] for _ in range(7)])
        batched = _batched_support(probs)
        assert batched.sum(axis=1) == pytest.approx(np.ones(7), abs=1e-9)

    def test_skips_all_zero_columns(self):
        rng = random.Random(47)
        for k, m in [(1, 6), (3, 10), (8, 25)]:
            probs = np.array([[rng.random() for _ in range(m)] for _ in range(k)])
            zero = sorted(rng.sample(range(m), m // 2))
            probs[:, zero] = 0.0
            if k > 1:
                # a column zero in some rows only is folded, not skipped
                probs[0, [j for j in range(m) if j not in zero][0]] = 0.0
            nonzero = probs[:, [j for j in range(m) if j not in zero]]
            m_folded = nonzero.shape[1]
            counter = ug.MultiplyAddCounter()
            full = _batched_support(probs, counter)
            padded = np.zeros((k, m + 1))
            padded[:, : m_folded + 1] = _batched_support(nonzero)
            assert full.shape == (k, m + 1)
            assert full.tobytes() == padded.tobytes()
            assert counter.count == k * m_folded * (m_folded + 1)


# entries of containment rows: certain, subnormal, absent and uniform
LAW_ENTRIES = st.sampled_from([0.0, 1.0, 5e-324]) | st.floats(0.0, 1.0)


class TestClassLaws:
    """``_class_laws`` stacks both classes into one support DP call per
    chunk of rows, and its laws are bit for bit those of one
    ``_batched_support`` call per class."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_per_class_calls(self, data):
        n_pos, n_neg = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
        n = n_pos + n_neg
        k = data.draw(st.integers(0, 9))
        row = st.lists(LAW_ENTRIES, min_size=n, max_size=n)
        rows = np.array(data.draw(st.lists(row, min_size=k, max_size=k)), dtype=float)
        rows = rows.reshape(k, n)
        zero = data.draw(st.lists(st.integers(0, max(k - 1, 0)), max_size=k))
        rows[sorted(set(zero))] = 0.0
        cols = np.array(data.draw(st.permutations(range(n))), dtype=np.intp)
        pos_cols, neg_cols = cols[:n_pos], cols[n_pos:]
        # chunks of 1, 2 or 3 rows, so that batches straddle chunk boundaries,
        # or one chunk; a chunk has _CELLS // (16 * width) rows
        chunk = data.draw(st.sampled_from([1, 2, 3, 10**6]))
        calls = []

        def spy(probs, counter=None):
            calls.append(len(probs))
            return _batched_support(probs, counter)

        with (
            mock.patch.object(miner, "_CELLS", chunk * 16 * max(n_pos, n_neg)),
            mock.patch.object(miner, "_batched_support", spy),
        ):
            pos, neg = miner._class_laws(rows, pos_cols, neg_cols)
        assert calls == [2 * len(rows[i : i + chunk]) for i in range(0, k, chunk)]
        for got, class_cols in ((pos, pos_cols), (neg, neg_cols)):
            want = _batched_support(rows[:, class_cols])
            assert got.flags.c_contiguous and got.dtype == want.dtype
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_no_law_computed_until_read(self, monkeypatch):
        """``mine`` and ``evaluate`` compute no law at export; the first read
        of a feature's law computes every kept feature's, in one DP call, as
        ``eager_search`` does with one call per class."""
        log = []  # ("dp", rows) per call; "export" and "exported" around each export
        real_laws, real_export = miner._class_laws, miner._CandidateList.export

        def spy(contain, pos_cols, neg_cols):
            log.append(("dp", len(contain)))
            return real_laws(contain, pos_cols, neg_cols)

        def export(self, pos_cols, neg_cols):
            log.append("export")
            out = real_export(self, pos_cols, neg_cols)
            log.append("exported")
            return out

        monkeypatch.setattr(miner, "_class_laws", spy)
        monkeypatch.setattr(miner._CandidateList, "export", export)
        rng = random.Random(97)
        read = 0
        for _ in range(6):
            ds = make_random_dataset(
                rng, n_graphs=rng.randint(4, 8), num_nodes=4, max_edges=4, prob_lo=0.2
            )
            for cfg in all_configs(t=4, min_sup=0.1):
                log.clear()
                result = ug.mine(ds, cfg)
                assert log[-2:] == ["export", "exported"]
                searched = len(log)
                laws = {}
                features, *_ = eager_search(ds, cfg, laws=laws)
                assert [(f.subgraph.edges, f.measure_value) for f in result.features] == features
                for f in result.features:
                    got = (f.pos_dist.tobytes(), f.neg_dist.tobytes())
                    assert got == laws[f.subgraph.edges]
                    assert f.joint.tobytes() == np.outer(f.pos_dist, f.neg_dist).tobytes()
                read_calls = [("dp", len(result.features))] if result.features else []
                assert log[searched:] == read_calls
                read += bool(result.features)
        assert read > 50

        # evaluate mines every split, each search ending in its export, and
        # reads no law
        ds = ug.parse_dataset((DATA_DIR / "fig2.json").read_bytes())
        log.clear()
        ug.evaluate(ds, simple_cfg(t=3, min_sup=0.1), repeats=3, train_fraction=0.75, seed=1)
        ends = [i for i, entry in enumerate(log) if entry == "exported"]
        assert len(ends) == 3 and ends[-1] == len(log) - 1
        assert all(log[i - 1] == "export" for i in ends)


class TestFrequencyGate:
    @staticmethod
    def datasets(seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            yield make_random_dataset(
                rng, n_graphs=rng.randint(4, 6), num_nodes=4, max_edges=3, prob_lo=0.2
            )

    def test_dp_sees_only_frequent_rows(self, monkeypatch):
        rows = []
        real = miner._class_laws

        def spy(contain, pos_cols, neg_cols):
            rows.append(contain.copy())
            return real(contain, pos_cols, neg_cols)

        monkeypatch.setattr(miner, "_class_laws", spy)
        for ds in self.datasets(31, 8):
            for cfg in all_configs(min_sup=0.2):
                for run in (ug.mine, ug.mine_exhaustive):
                    rows.clear()
                    result = run(ds, cfg)
                    # one call per batch; export makes none until a law is read,
                    # and then one, with a row per kept feature
                    search = list(rows)
                    if result.features:
                        result.features[-1].neg_dist
                        *_, exported = rows
                        assert len(rows) == len(search) + 1
                        assert len(exported) == len(result.features)
                    if run is ug.mine:
                        frequent = result.stats.nodes_evaluated - result.stats.frequency_pruned
                        assert sum(len(r) for r in search) == frequent
                    for r in rows:
                        assert np.all(r.mean(axis=1) > cfg.min_sup - 1e-12)

    def test_kept_joints_match_oracle(self):
        for ds in self.datasets(41, 6):
            for cfg in all_configs(t=4, min_sup=0.2):
                for run in (ug.mine, ug.mine_exhaustive):
                    for f in run(ds, cfg).features:
                        bf = ug.oracle_joint(f.subgraph, ds)
                        assert np.max(np.abs(f.joint - bf)) <= 1e-9


class TestCounts:
    """Each child list is counted when it is evaluated, and infrequent
    children are never built: the search keeps the counters and the theta
    trace of a walk that builds every child and counts it when pushed."""

    @staticmethod
    def datasets():
        rng = random.Random(53)
        for _ in range(6):
            yield make_random_dataset(
                rng, n_graphs=rng.randint(8, 12), num_nodes=7, max_edges=10, prob_lo=0.5
            )

    @staticmethod
    def configs():
        measures = [
            (ug.MeasureSpec("exp"), ug.ScoreFunction("conf")),
            (ug.MeasureSpec("phi-pr", 1.0), ug.ScoreFunction("ratio")),
            (ug.MeasureSpec("median"), ug.ScoreFunction("hsic")),
        ]
        for measure, score in measures:
            for max_edges in (None, 2, 3):
                for t in (1, 10):
                    yield ug.MiningConfig(
                        t=t, min_sup=0.15, measure=measure, score=score, max_edges=max_edges
                    )

    def test_counts_match_eager_walk(self):
        skipped = bound_cut = 0
        for ds in self.datasets():
            for cfg in self.configs():
                result = ug.mine(ds, cfg)
                features, evaluated, freq_pruned, bound_pruned, trace = eager_search(ds, cfg)
                stats = result.stats
                assert stats.nodes_evaluated == evaluated
                assert stats.frequency_pruned == freq_pruned
                assert stats.bound_pruned == bound_pruned
                assert stats.theta_trace == trace
                assert [(f.subgraph.edges, f.measure_value) for f in result.features] == features
                skipped += freq_pruned
                bound_cut += bound_pruned
        assert skipped > 5000 and bound_cut > 100


class TestGoldenDeepRun:
    """hiv-like seed 0, phi-pr/ratio, min_sup 0.1, max_edges 2, against output
    recorded before the threshold test and lazy children were introduced."""

    def test_matches_golden(self):
        golden = json.loads((DATA_DIR / "hiv_like_s0_ms01_e2.json").read_text())
        cfg = ug.MiningConfig(
            t=golden["top"],
            min_sup=golden["min_sup"],
            measure=ug.MeasureSpec(golden["measure"], golden["phi"]),
            score=ug.ScoreFunction(golden["score"], golden["cap_epsilon"]),
            max_edges=golden["max_edges"],
        )
        result = ug.mine(ug.make_preset(golden["preset"], seed=golden["seed"]), cfg)
        stats = result.stats
        assert {
            "nodes_evaluated": stats.nodes_evaluated,
            "frequency_pruned": stats.frequency_pruned,
            "bound_pruned": stats.bound_pruned,
        } == golden["stats"]
        expected = golden["features"]
        assert [[list(e) for e in f.subgraph.edges] for f in result.features] == [
            f["edges"] for f in expected
        ]
        assert [f.exp_freq for f in result.features] == [f["exp_freq"] for f in expected]
        for f, g in zip(result.features, expected):
            assert abs(f.measure_value - g["measure_value"]) <= 1e-12
