import math
import random

import numpy as np
import pytest

import ugmine as ug
from ugmine.distribution import _batched_support, _MeasureGrids, exp_of_pairs, phi_pr_of_pairs
from conftest import extend_subgraph, make_random_dataset, random_connected_subgraph

PATH = ug.Subgraph.from_edges([(0, 1), (1, 2)])


def graph(probs_by_edge, num_nodes=3):
    return ug.UncertainGraph(num_nodes, probs_by_edge)


class TestSupportDistribution:
    def test_single_bernoulli(self):
        g = ug.Subgraph.from_edges([(0, 1)])
        dist = ug.support_distribution(g, [graph({(0, 1): 0.8})])
        assert dist == pytest.approx([0.2, 0.8], abs=1e-12)

    def test_two_fair_graphs(self):
        g = ug.Subgraph.from_edges([(0, 1)])
        graphs = [graph({(0, 1): 0.5}), graph({(0, 1): 0.5})]
        dist = ug.support_distribution(g, graphs)
        assert dist == pytest.approx([0.25, 0.5, 0.25], abs=1e-12)

    def test_unembeddable_feature(self):
        graphs = [graph({(0, 1): 0.9}), graph({(1, 2): 0.9}), graph({})]
        dist = ug.support_distribution(PATH, graphs)
        assert dist == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=0)

    def test_normalization_and_mean(self):
        rng = random.Random(17)
        for _ in range(30):
            probs = [rng.random() for _ in range(rng.randint(1, 12))]
            dist = ug.poisson_binomial(probs)
            assert dist.sum() == pytest.approx(1.0, abs=1e-9)
            mean = float(np.arange(len(dist)) @ dist)
            assert mean == pytest.approx(sum(probs), abs=1e-9)

    def test_multiply_add_budget(self):
        rng = random.Random(23)
        for m in [1, 2, 5, 17, 40]:
            counter = ug.MultiplyAddCounter()
            ug.poisson_binomial([rng.random() for _ in range(m)], counter)
            assert counter.count <= m * (m + 1)

    def test_order_independent(self):
        rng = random.Random(29)
        probs = [rng.random() for _ in range(10)]
        base = ug.poisson_binomial(probs)
        for _ in range(5):
            rng.shuffle(probs)
            assert ug.poisson_binomial(probs) == pytest.approx(list(base), abs=1e-12)


class TestJointDistribution:
    def test_degenerate_negative_side(self):
        joint = ug.joint_distribution([0.2, 0.8], [1.0])
        assert joint.shape == (2, 1)
        assert joint[:, 0] == pytest.approx([0.2, 0.8])

    def test_outer_product(self):
        joint = ug.joint_distribution([0.5, 0.5], [0.5, 0.5])
        assert joint == pytest.approx(np.full((2, 2), 0.25))

    def test_marginals(self):
        pos = [0.1, 0.6, 0.3]
        neg = [0.25, 0.75]
        joint = ug.joint_distribution(pos, neg)
        assert joint.sum(axis=1) == pytest.approx(pos)
        assert joint.sum(axis=0) == pytest.approx(neg)


class TestScoreDistribution:
    def test_confidence_grouping(self):
        joint = np.full((2, 2), 0.25)
        dist = ug.score_distribution(joint, ug.ScoreFunction("conf"))
        assert dist.atoms == ((0.0, 0.5), (0.5, 0.25), (1.0, 0.25))

    def test_single_cell(self):
        joint = np.zeros((3, 3))
        joint[1, 2] = 1.0
        dist = ug.score_distribution(joint, ug.ScoreFunction("conf"))
        assert len(dist.atoms) == 1
        assert dist.atoms[0][1] == 1.0

    def test_total_mass(self):
        rng = random.Random(31)
        raw = np.array([[rng.random() for _ in range(4)] for _ in range(5)])
        joint = raw / raw.sum()
        dist = ug.score_distribution(joint, ug.ScoreFunction("gtest"))
        assert dist.total_mass() == pytest.approx(1.0, abs=1e-9)

    def test_equal_fractions_merge(self):
        # cells (1,1) and (2,2) both score confidence 1/2
        joint = np.zeros((3, 3))
        joint[1, 1] = 0.5
        joint[2, 2] = 0.5
        dist = ug.score_distribution(joint, ug.ScoreFunction("conf"))
        assert dist.atoms == ((0.5, 1.0),)

    def test_scores_strictly_increasing(self):
        joint = np.full((3, 4), 1 / 12)
        dist = ug.score_distribution(joint, ug.ScoreFunction("ratio"))
        scores = dist.scores()
        assert all(s1 < s2 for s1, s2 in zip(scores, scores[1:]))


class TestMeasures:
    def test_exp_two_atom_infinity(self):
        dist = ug.distribution_from_pairs([(0.01, 0.9999), (math.inf, 0.0001)])
        assert ug.measure_from_distribution(dist, ug.MeasureSpec("exp")) == math.inf

    def test_phi_pr_two_atom(self):
        dist = ug.distribution_from_pairs([(0.01, 0.9999), (math.inf, 0.0001)])
        spec = ug.MeasureSpec("phi-pr", phi=1.0)
        assert ug.measure_from_distribution(dist, spec) == 0.0001

    def test_phi_must_not_be_nan(self):
        """A NaN threshold ranks every feature at 0; an infinite one is valid."""
        with pytest.raises(ValueError, match="phi"):
            ug.MeasureSpec("phi-pr", math.nan)
        dist = ug.distribution_from_pairs([(0.01, 0.9999), (math.inf, 0.0001)])
        for phi, value in ((-math.inf, 1.0), (math.inf, 0.0001)):
            spec = ug.MeasureSpec("phi-pr", phi)
            assert ug.measure_from_distribution(dist, spec) == pytest.approx(value, abs=1e-15)

    def test_exp_single_cell(self):
        # all mass on the support pair (1, 0)
        exp = ug.MeasureSpec("exp")
        assert ug.measure_value([0.0, 1.0], [1.0, 0.0], ug.ScoreFunction("conf"), exp) == 1.0

    def test_exp_average(self):
        assert exp_of_pairs([(1.0, 0.5), (3.0, 0.5)]) == pytest.approx(2.0)

    def test_exp_ignores_zero_probability_infinity(self):
        assert exp_of_pairs([(math.inf, 0.0), (2.0, 1.0)]) == 2.0

    def test_median_cdf_walk(self):
        dist = ug.distribution_from_pairs([(0.0, 0.3), (1.0, 0.3), (2.0, 0.4)])
        assert ug.measure_from_distribution(dist, ug.MeasureSpec("median")) == 0.0

    def test_median_fallback(self):
        dist = ug.distribution_from_pairs([(0.01, 0.9999), (math.inf, 0.0001)])
        assert ug.measure_from_distribution(dist, ug.MeasureSpec("median")) == 0.01

    def test_median_single_atom(self):
        dist = ug.distribution_from_pairs([(0.7, 1.0)])
        assert ug.measure_from_distribution(dist, ug.MeasureSpec("median")) == 0.7

    def test_median_boundary_half(self):
        dist = ug.distribution_from_pairs([(1.0, 0.5), (2.0, 0.5)])
        assert ug.measure_from_distribution(dist, ug.MeasureSpec("median")) == 1.0

    def test_mode_unique_max(self):
        dist = ug.distribution_from_pairs([(0.0, 0.25), (0.5, 0.5), (1.0, 0.25)])
        assert ug.measure_from_distribution(dist, ug.MeasureSpec("mode")) == 0.5

    def test_mode_tie_breaks_low(self):
        dist = ug.distribution_from_pairs([(0.0, 0.5), (1.0, 0.5)])
        assert ug.measure_from_distribution(dist, ug.MeasureSpec("mode")) == 0.0

    def test_mode_single_atom(self):
        dist = ug.distribution_from_pairs([(0.3, 1.0)])
        assert ug.measure_from_distribution(dist, ug.MeasureSpec("mode")) == 0.3

    def test_phi_extremes(self):
        dist = ug.distribution_from_pairs([(0.2, 0.5), (0.8, 0.5)])
        assert phi_pr_of_pairs(dist.atoms, -math.inf) == 1.0
        assert phi_pr_of_pairs(dist.atoms, 100.0) == 0.0

    def test_phi_pr_from_marginals(self):
        spec = ug.ScoreFunction("conf")
        # every cell 0.25; cells scoring >= 0.5: (1,1) -> 0.5 and (1,0) -> 1.0
        phi = ug.MeasureSpec("phi-pr", 0.5)
        assert ug.measure_value([0.5, 0.5], [0.5, 0.5], spec, phi) == pytest.approx(0.5)


class TestExpectedFrequency:
    def test_fig2_path(self, fig2):
        assert ug.expected_frequency(PATH, fig2) == pytest.approx(0.4025, abs=1e-12)

    def test_absent_everywhere(self, fig2):
        tri = ug.Subgraph.from_edges([(0, 1), (0, 2), (1, 2)])
        ds = ug.Dataset(3, (fig2.graphs[2], fig2.graphs[3]), (1, -1))
        assert ug.expected_frequency(tri, ds) == 0.0

    def test_certain_edge(self):
        graphs = tuple(graph({(0, 1): 1.0}) for _ in range(3))
        ds = ug.Dataset(3, graphs, (1, 1, -1))
        g = ug.Subgraph.from_edges([(0, 1)])
        assert ug.expected_frequency(g, ds) == 1.0

    def test_anti_monotone(self):
        rng = random.Random(37)
        for _ in range(40):
            ds = make_random_dataset(rng, num_nodes=5, max_edges=5)
            universe = sorted(ug.union_graph(ds).edges)
            if len(universe) < 2:
                continue
            g = random_connected_subgraph(rng, universe, max_size=2)
            sup = extend_subgraph(rng, g, universe, extra=2)
            if sup is None:
                continue
            assert ug.expected_frequency(sup, ds) <= ug.expected_frequency(g, ds) + 1e-12

    def test_equals_mined_exp_freq(self):
        """``featurize`` multiplies a feature's edges in the order the
        reverse-search tree adds them, as ``mine`` does, so at every size
        the means and the support laws agree bit for bit. An ascending
        product differs in the last ulp on one of the exp/conf features."""
        ds = ug.make_preset("hiv-like", seed=0)
        checked = large = 0
        for measure, score, t in [
            (ug.MeasureSpec("exp"), ug.ScoreFunction("hsic"), 100),
            (ug.MeasureSpec("phi-pr", 1.0), ug.ScoreFunction("ratio"), 100),
            (ug.MeasureSpec("exp"), ug.ScoreFunction("conf"), 3000),
        ]:
            cfg = ug.MiningConfig(t=t, min_sup=0.05, measure=measure, score=score, max_edges=4)
            for f in ug.mine(ds, cfg).features:
                g = f.subgraph
                assert ug.expected_frequency(g, ds).hex() == f.exp_freq.hex(), g
                assert ug.support_distribution(g, ds.pos).tobytes() == f.pos_dist.tobytes(), g
                assert ug.support_distribution(g, ds.neg).tobytes() == f.neg_dist.tobytes(), g
                checked += 1
                large += len(g) >= 3
        assert checked == 3200
        assert large == 506


class TestUpperBounds:
    def test_confidence_bound_closed_form(self):
        rng = random.Random(41)
        spec = ug.ScoreFunction("conf")
        for _ in range(20):
            pos = np.array([rng.random() for _ in range(4)])
            pos /= pos.sum()
            neg = np.array([rng.random() for _ in range(3)])
            neg /= neg.sum()
            bound = ug.measure_bound(pos, neg, spec, ug.MeasureSpec("exp"))
            assert bound == pytest.approx(1.0 - pos[0], abs=1e-12)

    def test_phi_bound_extreme(self):
        spec = ug.ScoreFunction("conf")
        phi = ug.MeasureSpec("phi-pr", -math.inf)
        assert ug.measure_bound([0.5, 0.5], [0.5, 0.5], spec, phi) == pytest.approx(1.0)

    def test_bound_dominance_over_supergraphs(self):
        rng = random.Random(43)
        checked = 0
        while checked < 25:
            ds = make_random_dataset(rng, n_graphs=rng.randint(2, 4), num_nodes=4, max_edges=3)
            if ds.n_pos == 0 or ds.n_neg == 0:
                continue
            universe = sorted(ug.union_graph(ds).edges)
            if len(universe) < 2:
                continue
            g = random_connected_subgraph(rng, universe, max_size=2)
            sup = extend_subgraph(rng, g, universe, extra=2)
            if sup is None:
                continue
            laws_g = ug.support_distribution(g, ds.pos), ug.support_distribution(g, ds.neg)
            laws_s = ug.support_distribution(sup, ds.pos), ug.support_distribution(sup, ds.neg)
            exp, phi = ug.MeasureSpec("exp"), ug.MeasureSpec("phi-pr", 0.4)
            for kind in ug.SCORE_KINDS:
                for cap in (0.0, 0.01):
                    spec = ug.ScoreFunction(kind, cap)
                    ub = ug.measure_bound(*laws_g, spec, exp)
                    val = ug.measure_value(*laws_s, spec, exp)
                    if math.isinf(val):
                        assert math.isinf(ub)
                    else:
                        assert ub >= val - 1e-9
                    assert ug.measure_bound(*laws_g, spec, phi) >= (
                        ug.measure_value(*laws_s, spec, phi) - 1e-9
                    )
            checked += 1


class TestMeasureGridRows:
    @staticmethod
    def laws(rng, k, m):
        probs = rng.random((k, m)) ** 2
        probs[rng.random(k) < 0.3] = 1.0  # certain rows put no mass on support 0
        return _batched_support(probs)

    def test_bounded_exactly_for_exp_and_phi_pr(self):
        grid = ug.score_grid(ug.ScoreFunction("hsic"), 3, 2)
        for kind in ug.MEASURE_KINDS:
            measure = ug.MeasureSpec(kind, 0.01 if kind == "phi-pr" else None)
            assert _MeasureGrids(measure, grid).bounded == (kind in ("exp", "phi-pr"))

    def test_envelope_built_on_first_bounds(self, monkeypatch):
        import ugmine.distribution as distribution

        calls = []
        real = distribution.envelope_from_grid

        def spy(grid):
            calls.append(grid)
            return real(grid)

        monkeypatch.setattr(distribution, "envelope_from_grid", spy)
        rng = np.random.default_rng(7)
        pos, neg = self.laws(rng, 5, 6), self.laws(rng, 5, 4)
        grid = ug.score_grid(ug.ScoreFunction("conf"), 6, 4)
        grids = _MeasureGrids(ug.MeasureSpec("exp"), grid)
        grids.values(pos, neg)
        assert calls == []
        bounds = grids.bounds(pos, neg)
        grids.bounds(pos, neg)
        assert len(calls) == 1 and calls[0] is grid
        # the envelope form, raised by the documented rounding slack
        slack = 1.0 + 8 * sum(grid.shape) * np.finfo(float).eps
        expected = _MeasureGrids._bilinear(pos, real(grid), neg) * slack
        assert np.array_equal(bounds, expected)

    def test_median_and_mode_group_each_grid_once(self, monkeypatch):
        import ugmine.distribution as distribution

        keys = []
        real = distribution.score_group_key
        monkeypatch.setattr(distribution, "score_group_key", lambda s: keys.append(s) or real(s))
        distribution._score_groups.cache_clear()
        grid = ug.score_grid(ug.ScoreFunction("gtest"), 5, 4)
        first = _MeasureGrids(ug.MeasureSpec("median"), grid)
        assert keys == grid.ravel().tolist()
        again = _MeasureGrids(ug.MeasureSpec("mode"), grid.copy())
        assert len(keys) == grid.size
        assert again.group_scores is first.group_scores and again.group_ids is first.group_ids
        assert not first.group_scores.flags.writeable and not first.group_ids.flags.writeable
        grouped = [real(s) for s in keys]
        assert first.group_scores.tolist() == sorted(set(grouped))
        assert first.group_scores[first.group_ids].tolist() == grouped

    def test_rows_independent_of_batch(self):
        rng = np.random.default_rng(53)
        n_pos, n_neg, k = 40, 30, 60
        pos, neg = self.laws(rng, k, n_pos), self.laws(rng, k, n_neg)
        subsets = [[i] for i in range(k)]
        subsets += [np.sort(rng.choice(k, size, replace=False)) for size in (2, 7, 31, 59)]
        phi = {"conf": 0.5, "ratio": 1.0, "gtest": 1.0, "hsic": 0.01}
        inf_rows = 0
        for kind in ug.SCORE_KINDS:
            for cap in (0.0, 0.01):
                score = ug.ScoreFunction(kind, cap)
                grid = ug.score_grid(score, n_pos, n_neg)
                for measure in (ug.MeasureSpec("exp"), ug.MeasureSpec("phi-pr", phi[kind])):
                    grids = _MeasureGrids(measure, grid)
                    values, bounds = grids.values(pos, neg), grids.bounds(pos, neg)
                    inf_rows += int(np.isinf(values).sum())
                    assert np.all(bounds >= values)
                    for rows in subsets:
                        assert np.array_equal(grids.values(pos[rows], neg[rows]), values[rows])
                        assert np.array_equal(grids.bounds(pos[rows], neg[rows]), bounds[rows])
        # uncapped ratio and gtest reach the +inf mask on some rows, not all
        assert 0 < inf_rows < 4 * k


class TestOracleAgreement:
    def test_joint_matches_oracle(self):
        rng = random.Random(47)
        for _ in range(30):
            ds = make_random_dataset(rng, num_nodes=4, max_edges=3)
            universe = sorted(ug.union_graph(ds).edges)
            if not universe:
                continue
            g = random_connected_subgraph(rng, universe)
            dp = ug.joint_distribution(
                ug.support_distribution(g, ds.pos), ug.support_distribution(g, ds.neg)
            )
            bf = ug.oracle_joint(g, ds)
            assert np.max(np.abs(dp - bf)) <= 1e-9

    def test_measures_match_oracle(self):
        rng = random.Random(53)
        measures = [
            ug.MeasureSpec("exp"),
            ug.MeasureSpec("median"),
            ug.MeasureSpec("mode"),
            ug.MeasureSpec("phi-pr", phi=0.5),
        ]
        done = 0
        while done < 10:
            ds = make_random_dataset(rng, num_nodes=4, max_edges=3)
            if ds.n_pos == 0 or ds.n_neg == 0:
                continue
            universe = sorted(ug.union_graph(ds).edges)
            if not universe:
                continue
            g = random_connected_subgraph(rng, universe)
            pos, neg = ug.support_distribution(g, ds.pos), ug.support_distribution(g, ds.neg)
            for kind in ug.SCORE_KINDS:
                spec = ug.ScoreFunction(kind)
                for m in measures:
                    got = ug.measure_value(pos, neg, spec, m)
                    want = ug.oracle_measure(g, ds, m, spec)
                    if math.isinf(want):
                        assert got == want
                    else:
                        assert got == pytest.approx(want, abs=1e-9)
            done += 1


@pytest.fixture(scope="module")
def hiv():
    return ug.make_preset("hiv-like", seed=0)


class TestSingleFeatureApi:
    """``measure_value`` and ``measure_bound`` run the kernel ``mine`` runs."""

    PHI = {"conf": 0.5, "ratio": 1.0, "gtest": 1.0, "hsic": 0.01}

    @pytest.mark.parametrize("kind", ug.SCORE_KINDS)
    @pytest.mark.parametrize("measure_kind", ug.MEASURE_KINDS)
    def test_mined_features(self, hiv, measure_kind, kind):
        score = ug.ScoreFunction(kind)
        measure = ug.MeasureSpec(measure_kind, self.PHI[kind] if measure_kind == "phi-pr" else None)
        cfg = ug.MiningConfig(t=100, min_sup=0.05, max_edges=2, measure=measure, score=score)
        features = ug.mine(hiv, cfg).features
        assert len(features) == 100
        for f in features:
            value = ug.measure_value(f.pos_dist, f.neg_dist, score, measure)
            bound = ug.measure_bound(f.pos_dist, f.neg_dist, score, measure)
            assert value.hex() == f.measure_value.hex()  # bit for bit
            assert bound >= value
            if measure_kind in ("median", "mode"):
                assert bound == math.inf

    def test_reachable_infinity_survives_underflow(self):
        # the pair (1, 0) scores +inf under ratio and is reachable, though the
        # product of its two masses underflows to 0
        pos = np.array([1.0, 1e-200])
        neg = np.array([1e-200, 1.0])
        assert np.outer(pos, neg)[1, 0] == 0.0
        exp = ug.MeasureSpec("exp")
        assert ug.measure_value(pos, neg, ug.ScoreFunction("ratio"), exp) == math.inf
