import numpy as np
import pytest

import ugmine as ug
from ugmine.classify import (
    error_rate,
    f1_score,
    predict_labels,
    train_logistic_regression,
)

PATH = ug.Subgraph.from_edges([(0, 1), (1, 2)])


class TestFeaturize:
    def test_fig2_column(self, fig2):
        m = ug.featurize(fig2, [PATH])
        assert m.values[:, 0] == pytest.approx([0.72, 0.72, 0.09, 0.08], abs=1e-12)
        assert list(m.labels) == [1, 1, -1, -1]

    def test_absent_feature_zero_column(self, fig2):
        ds = ug.Dataset(3, (fig2.graphs[2], fig2.graphs[3]), (1, -1))
        feature = ug.Subgraph.from_edges([(0, 2)])
        m = ug.featurize(ds, [feature])
        assert (m.values[:, 0] == 0).all()

    def test_certain_feature_ones_column(self):
        g = ug.UncertainGraph(2, {(0, 1): 1.0})
        ds = ug.Dataset(2, (g, g), (1, -1))
        m = ug.featurize(ds, [ug.Subgraph.from_edges([(0, 1)])])
        assert (m.values[:, 0] == 1).all()

    def test_empty_features_rejected(self, fig2):
        with pytest.raises(ValueError, match="nonempty"):
            ug.featurize(fig2, [])

    def test_incompatible_universe_rejected(self, fig2):
        with pytest.raises(ValueError, match="outside"):
            ug.featurize(fig2, [ug.Subgraph.from_edges([(0, 9)])])


class TestExportCsv:
    def test_single_cell_fixture(self):
        m = ug.FeatureMatrix(np.array([[0.72]]), np.array([1]))
        assert ug.export_csv(m) == b"g_0,label\n0.72,1\n"

    def test_column_count(self, fig2):
        m = ug.featurize(fig2, [PATH, ug.Subgraph.from_edges([(0, 1)])])
        lines = ug.export_csv(m).decode().strip().split("\n")
        assert lines[0] == "g_0,g_1,label"
        assert all(len(line.split(",")) == 3 for line in lines)
        assert len(lines) == 5

    def test_round_trip_values(self, fig2):
        m = ug.featurize(fig2, [PATH])
        lines = ug.export_csv(m).decode().strip().split("\n")[1:]
        values = [float(line.split(",")[0]) for line in lines]
        assert values == pytest.approx(list(m.values[:, 0]), abs=0)


class TestLogisticRegression:
    def test_separable_data(self):
        rng = np.random.default_rng(0)
        x = np.concatenate([rng.uniform(0.7, 1.0, (30, 1)), rng.uniform(0.0, 0.3, (30, 1))])
        y01 = np.concatenate([np.ones(30), np.zeros(30)])
        w, b = train_logistic_regression(x, y01)
        pred = predict_labels(x, w, b)
        truth = np.where(y01 == 1, 1, -1)
        assert error_rate(truth, pred) < 0.05

    def test_f1_degenerate(self):
        y = np.array([-1, -1])
        assert f1_score(y, y) == 0.0

    def test_f1_perfect(self):
        y = np.array([1, 1, -1])
        assert f1_score(y, y) == 1.0


def eval_dataset(signal: bool, seed: int = 0) -> ug.Dataset:
    cfg = ug.SynthConfig(
        seed=seed,
        n_pos=15,
        n_neg=15,
        num_nodes=8,
        background_edges_per_graph=5,
        background_prob_range=(0.3, 0.8),
        planted=ug.Subgraph.from_edges([(0, 1), (1, 2)]),
        planted_prob_pos=0.9,
        planted_prob_neg=0.1 if signal else 0.9,
    )
    return ug.generate(cfg)


def eval_cfg() -> ug.MiningConfig:
    return ug.MiningConfig(
        t=5,
        min_sup=0.2,
        measure=ug.MeasureSpec("phi-pr", phi=1.0),
        score=ug.ScoreFunction("ratio"),
    )


class TestEvaluate:
    def test_deterministic(self):
        ds = eval_dataset(signal=True)
        r1 = ug.evaluate(ds, eval_cfg(), repeats=2, seed=7)
        r2 = ug.evaluate(ds, eval_cfg(), repeats=2, seed=7)
        assert r1 == r2

    def test_strong_signal_learnable(self):
        ds = eval_dataset(signal=True)
        report = ug.evaluate(ds, eval_cfg(), repeats=5, seed=1)
        assert report.mean_error < 0.2
        assert report.mean_f1 > 0.8

    def test_no_test_leakage(self, monkeypatch):
        ds = eval_dataset(signal=True)
        seen = []
        real_mine = ug.miner.mine

        def spy(dataset, cfg):
            seen.append(dataset)
            return real_mine(dataset, cfg)

        monkeypatch.setattr(ug.miner, "mine", spy)
        ug.evaluate(ds, eval_cfg(), repeats=3, seed=2)
        assert len(seen) == 3
        assert all(len(d) == 24 for d in seen)  # 80% of 30, stratified
        assert all(d.n_pos == 12 and d.n_neg == 12 for d in seen)

    @pytest.mark.parametrize("preset", [None, "hiv-like"])
    def test_split_features_match_fresh_dataset(self, monkeypatch, preset):
        """Each split, mined from a slice of the dataset's edge table, mines the
        same features as a dataset of the same graphs built from scratch."""
        ds = eval_dataset(signal=True) if preset is None else ug.make_preset(preset, seed=0)
        cfg = eval_cfg()
        runs = []
        real_mine = ug.miner.mine

        def spy(dataset, cfg):
            result = real_mine(dataset, cfg)
            runs.append((dataset, result))
            return result

        monkeypatch.setattr(ug.miner, "mine", spy)
        ug.evaluate(ds, cfg, repeats=3, train_fraction=0.5, seed=4)
        assert len(runs) == 3
        for split, result in runs:
            expected = real_mine(
                ug.Dataset(split.num_nodes, split.graphs, split.labels, split.ids), cfg
            )
            assert result.features == expected.features
            assert result.stats == expected.stats
            for got, want in zip(result.features, expected.features):
                assert got.pos_dist.tobytes() == want.pos_dist.tobytes()
                assert got.neg_dist.tobytes() == want.neg_dist.tobytes()

    def test_class_required(self, fig2):
        ds = ug.Dataset(3, fig2.graphs, (1, 1, 1, 1))
        with pytest.raises(ValueError):
            ug.evaluate(ds, eval_cfg(), repeats=1)

    def test_report_fields_in_range(self):
        ds = eval_dataset(signal=True)
        report = ug.evaluate(ds, eval_cfg(), repeats=3, seed=3)
        assert all(0.0 <= e <= 1.0 for e in report.error_rates)
        assert all(0.0 <= f <= 1.0 for f in report.f1_scores)
        assert len(report.error_rates) == 3
