import math
import random

import numpy as np
import pytest

import ugmine as ug
from conftest import make_random_dataset


class TestEnumerateWorlds:
    def test_single_edge(self):
        g = ug.UncertainGraph(2, {(0, 1): 0.8})
        ds = ug.Dataset(2, (g,), (1,))
        worlds = list(ug.enumerate_worlds(ds))
        assert len(worlds) == 2
        by_edges = {w.graphs[0].edges: w.probability for w in worlds}
        assert by_edges[frozenset()] == pytest.approx(0.2)
        assert by_edges[frozenset({(0, 1)})] == pytest.approx(0.8)

    def test_fig2_first_graph(self, fig2):
        ds = ug.Dataset(3, (fig2.graphs[0],), (1,))
        worlds = list(ug.enumerate_worlds(ds))
        assert len(worlds) == 8
        full = [w for w in worlds if len(w.graphs[0].edges) == 3]
        assert len(full) == 1
        assert full[0].probability == pytest.approx(0.072, abs=1e-12)
        assert sum(w.probability for w in worlds) == pytest.approx(1.0, abs=1e-9)

    def test_each_world_once(self, fig2):
        worlds = list(ug.enumerate_worlds(fig2))
        assert len(worlds) == ug.world_count(fig2) == 2**3 * 2**3 * 2**2 * 2**2
        keys = {tuple(g.edges for g in w.graphs) for w in worlds}
        assert len(keys) == len(worlds)

    def test_probabilities_sum_to_one(self):
        rng = random.Random(61)
        for _ in range(10):
            ds = make_random_dataset(rng, num_nodes=4, max_edges=3)
            total = sum(w.probability for w in ug.enumerate_worlds(ds))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_budget_refusal_names_count(self, fig2):
        with pytest.raises(ug.WorldCountError, match="1024 possible worlds"):
            list(ug.enumerate_worlds(fig2, max_worlds=1000))

    def test_certain_edges_spawn_no_zero_worlds(self):
        g = ug.UncertainGraph(3, {(0, 1): 1.0, (1, 2): 0.5})
        ds = ug.Dataset(3, (g,), (1,))
        worlds = list(ug.enumerate_worlds(ds))
        assert len(worlds) == 2
        assert all(w.probability > 0 for w in worlds)
        assert all((0, 1) in w.graphs[0].edges for w in worlds)


class TestOracleJoint:
    def test_two_fair_graphs(self):
        g1 = ug.UncertainGraph(2, {(0, 1): 0.5})
        g2 = ug.UncertainGraph(2, {(0, 1): 0.5})
        ds = ug.Dataset(2, (g1, g2), (1, -1))
        feature = ug.Subgraph.from_edges([(0, 1)])
        joint = ug.oracle_joint(feature, ds)
        assert joint == pytest.approx(np.full((2, 2), 0.25))

    def test_unembeddable_feature(self, fig2):
        tri = ug.Subgraph.from_edges([(0, 1), (0, 2), (1, 2)])
        ds = ug.Dataset(3, (fig2.graphs[2], fig2.graphs[3]), (1, -1))
        joint = ug.oracle_joint(tri, ds)
        assert joint[0, 0] == pytest.approx(1.0, abs=1e-9)
        assert (joint.ravel()[1:] == 0.0).all()

    def test_mass_sums_to_one(self, fig2):
        feature = ug.Subgraph.from_edges([(0, 1), (1, 2)])
        joint = ug.oracle_joint(feature, fig2)
        assert joint.sum() == pytest.approx(1.0, abs=1e-9)

    def test_budget_refusal(self, fig2):
        feature = ug.Subgraph.from_edges([(0, 1)])
        with pytest.raises(ug.WorldCountError):
            ug.oracle_joint(feature, fig2, max_worlds=100)


class TestOracleMeasure:
    def test_constant_score_expectation(self):
        # a certain feature scores identically in every world
        g1 = ug.UncertainGraph(2, {(0, 1): 1.0})
        g2 = ug.UncertainGraph(2, {(0, 1): 1.0})
        ds = ug.Dataset(2, (g1, g2), (1, -1))
        feature = ug.Subgraph.from_edges([(0, 1)])
        got = ug.oracle_measure(feature, ds, ug.MeasureSpec("exp"), ug.ScoreFunction("conf"))
        assert got == 0.5

    def test_phi_minus_infinity(self, fig2):
        feature = ug.Subgraph.from_edges([(0, 1)])
        got = ug.oracle_measure(
            feature, fig2, ug.MeasureSpec("phi-pr", phi=-math.inf), ug.ScoreFunction("gtest")
        )
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_matches_dp_route(self, fig2):
        feature = ug.Subgraph.from_edges([(0, 1), (1, 2)])
        pos = ug.support_distribution(feature, fig2.pos)
        neg = ug.support_distribution(feature, fig2.neg)
        for kind in ug.SCORE_KINDS:
            spec = ug.ScoreFunction(kind)
            for m in (
                ug.MeasureSpec("exp"),
                ug.MeasureSpec("median"),
                ug.MeasureSpec("mode"),
                ug.MeasureSpec("phi-pr", phi=0.3),
            ):
                want = ug.oracle_measure(feature, fig2, m, spec)
                got = ug.measure_value(pos, neg, spec, m)
                if math.isinf(want):
                    assert got == want
                else:
                    assert got == pytest.approx(want, abs=1e-9)
