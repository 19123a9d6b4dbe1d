import math

import numpy as np
import pytest

import ugmine as ug
from ugmine import classify
from ugmine.classify import (
    ITERATIONS,
    L2,
    LEARNING_RATE,
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

    def test_huge_repeats_not_preallocated(self, monkeypatch):
        """A repeat count far beyond memory starts its first splits; nothing is
        sized by it up front."""

        class Sentinel(Exception):
            pass

        calls = []
        real_mine = ug.miner.mine

        def second_call_raises(dataset, cfg):
            calls.append(dataset)
            if len(calls) == 2:
                raise Sentinel
            return real_mine(dataset, cfg)

        monkeypatch.setattr(ug.miner, "mine", second_call_raises)
        with pytest.raises(Sentinel):
            ug.evaluate(eval_dataset(signal=True), eval_cfg(), repeats=10**23)
        assert len(calls) == 2

    def test_class_required(self, fig2):
        ds = ug.Dataset(3, fig2.graphs, (1, 1, 1, 1))
        with pytest.raises(ValueError):
            ug.evaluate(ds, eval_cfg(), repeats=1)

    @pytest.mark.parametrize("repeats", [0, -1, 2.5, True, "3"])
    def test_repeats_below_one_or_not_an_integer_rejected(self, repeats):
        with pytest.raises(ValueError, match="^repeats must be >= 1$"):
            ug.evaluate(eval_dataset(signal=True), eval_cfg(), repeats=repeats)

    def test_report_fields_in_range(self):
        ds = eval_dataset(signal=True)
        report = ug.evaluate(ds, eval_cfg(), repeats=3, seed=3)
        assert all(0.0 <= e <= 1.0 for e in report.error_rates)
        assert all(0.0 <= f <= 1.0 for f in report.f1_scores)
        assert len(report.error_rates) == 3


def reference_train(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """One model by the plain two-dimensional loop, stopping at the first step
    after which both gradients are below 1e-9."""
    n, m = x.shape
    w = np.zeros(m)
    b = 0.0
    for _ in range(ITERATIONS):
        z = x @ w + b
        pred = 1.0 / (1.0 + np.exp(-z))
        err = pred - y
        grad_w = x.T @ err / n + L2 * w
        grad_b = float(err.mean())
        w -= LEARNING_RATE * grad_w
        b -= LEARNING_RATE * grad_b
        if np.abs(grad_w).max(initial=0.0) < 1e-9 and abs(grad_b) < 1e-9:
            break
    return w, b


def reference_evaluate(dataset, cfg, repeats, train_fraction=0.8, seed=0) -> ug.EvalReport:
    """``evaluate`` split by split: containment from the edge dicts, one fit per split."""
    errors, f1s = [], []
    for r in range(repeats):
        rng = np.random.default_rng([seed, r])
        train_idx, test_idx = classify._stratified_split(dataset, train_fraction, rng)
        train, test = dataset.subset(train_idx), dataset.subset(test_idx)
        features = [f.subgraph for f in ug.miner.mine(train, cfg).features]
        y_test = np.asarray(test.labels, dtype=int)
        if not features:
            majority = 1 if train.n_pos >= train.n_neg else -1
            y_pred = np.full(len(y_test), majority)
        else:
            def matrix(d):
                return np.array(
                    [[ug.containment_probability(f, g) for f in features] for g in d.graphs]
                )

            y01 = (np.asarray(train.labels) == 1).astype(float)
            w, b = reference_train(matrix(train), y01)
            y_pred = predict_labels(matrix(test), w, b)
        errors.append(error_rate(y_test, y_pred))
        f1s.append(f1_score(y_test, y_pred))
    err, f1 = np.asarray(errors), np.asarray(f1s)
    return ug.EvalReport(
        tuple(errors), tuple(f1s), float(err.mean()), float(err.std()),
        float(f1.mean()), float(f1.std()),
    )


def split_stacks(monkeypatch, ds, cfg, **kwargs) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (x, y) stacks that ``evaluate`` trains on ``ds``."""
    stacks = []

    def spy(x, y):
        stacks.append((x, y))
        return train_logistic_regression(x, y)

    monkeypatch.setattr(classify, "train_logistic_regression", spy)
    ug.evaluate(ds, cfg, **kwargs)
    monkeypatch.undo()
    return stacks


def assert_stack_matches_reference(x: np.ndarray, y: np.ndarray) -> None:
    weights, intercepts = train_logistic_regression(x, y)
    assert weights.shape == x.shape[::2] and intercepts.shape == x.shape[:1]
    for k in range(len(x)):
        w, b = reference_train(x[k], y[k])
        assert weights[k].tobytes() == w.tobytes()
        assert intercepts[k].tobytes() == np.float64(b).tobytes()


class TestStackedFit:
    """A stack of models trains to the weights of training each alone, bit for bit."""

    @pytest.mark.parametrize(
        "preset, measure, score, flags",
        [
            ("adhd-like", ug.MeasureSpec("phi-pr", phi=1.0), "ratio", dict(repeats=6)),
            ("hiv-like", ug.MeasureSpec("median"), "hsic", dict(repeats=8, train_fraction=0.5)),
        ],
    )
    def test_real_split_matrices(self, monkeypatch, preset, measure, score, flags):
        ds = ug.make_preset(preset, seed=1)
        cfg = ug.MiningConfig(t=10, min_sup=0.2, measure=measure, score=ug.ScoreFunction(score))
        stacks = split_stacks(monkeypatch, ds, cfg, **flags)
        assert sum(len(x) for x, _ in stacks) == flags["repeats"]
        for x, y in stacks:
            assert x.ndim == 3
            assert_stack_matches_reference(x, y)
        # every split matrix of the run, in one stack per shape, and reversed
        by_shape: dict = {}
        for x, y in stacks:
            for k in range(len(x)):
                by_shape.setdefault(x[k].shape, []).append((x[k], y[k]))
        for pairs in by_shape.values():
            x = np.stack([p[0] for p in pairs])
            y = np.stack([p[1] for p in pairs])
            assert_stack_matches_reference(x, y)
            assert_stack_matches_reference(x[::-1].copy(), y[::-1].copy())

    def test_rows_converged_at_step_zero_and_midway(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0.0, 1.0, (4, 20, 4))
        x[1] = x[3] = 0.0
        y = np.tile(np.repeat([1.0, 0.0], 10), (4, 1))
        y[2] = rng.permutation(y[2])
        # all-zero features with balanced labels: both gradients are 0 at step 0
        w, b = reference_train(x[1], y[1])
        assert w.tolist() == [0.0] * 4 and b == 0.0
        # all-zero features with 6 of 20 positives: the intercept's gradient
        # falls below 1e-9 at step 170 without reaching 0, so the row must
        # stop moving there
        y[3] = np.repeat([1.0, 0.0], [6, 14])
        _, b = reference_train(x[3], y[3])
        assert b != math.log(6 / 14) and abs(b - math.log(6 / 14)) < 1e-8
        assert_stack_matches_reference(x, y)
        weights, _ = train_logistic_regression(x, y)
        alone = train_logistic_regression(x[[0, 2]], y[[0, 2]])[0]
        assert weights[0].tobytes() == alone[0].tobytes()

    def test_every_row_converged(self):
        x = np.zeros((2, 6, 3))
        y = np.tile([1.0, 0.0], (2, 3))
        weights, intercepts = train_logistic_regression(x, y)
        assert (weights == 0).all() and (intercepts == 0).all()

    def test_stack_of_one_and_two_dimensional_call(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(0.0, 1.0, (30, 3))
        y = (rng.uniform(size=30) < 0.5).astype(float)
        assert_stack_matches_reference(x[None], y[None])
        w, b = train_logistic_regression(x, y)
        ref_w, ref_b = reference_train(x, y)
        assert w.shape == (3,) and type(b) is float
        assert w.tobytes() == ref_w.tobytes() and b == ref_b


class TestEvaluateMatchesPerSplitLoop:
    """``evaluate`` trains its splits together and reports what a fit per split reports."""

    def test_fewer_than_t_features(self):
        ds = eval_dataset(signal=True)
        cfg = ug.MiningConfig(
            t=40, min_sup=0.2, measure=ug.MeasureSpec("exp"), score=ug.ScoreFunction("conf")
        )
        counts = []
        real_mine = ug.miner.mine
        for r in range(6):
            rng = np.random.default_rng([5, r])
            train_idx, _ = classify._stratified_split(ds, 0.8, rng)
            counts.append(len(real_mine(ds.subset(train_idx), cfg).features))
        assert all(c < cfg.t for c in counts) and len(set(counts)) > 1
        assert ug.evaluate(ds, cfg, repeats=6, seed=5) == reference_evaluate(ds, cfg, 6, seed=5)

    def test_split_without_features(self, monkeypatch):
        ds = ug.make_preset("hiv-like", seed=0)
        cfg = eval_cfg()
        real_mine = ug.miner.mine
        calls = []

        def every_third_empty(dataset, cfg):
            result = real_mine(dataset, cfg)
            calls.append(len(calls))
            if len(calls) % 3 == 2:
                return ug.MiningResult((), result.stats)
            return result

        monkeypatch.setattr(ug.miner, "mine", every_third_empty)
        got = ug.evaluate(ds, cfg, repeats=5, train_fraction=0.5, seed=3)
        calls.clear()
        assert got == reference_evaluate(ds, cfg, 5, train_fraction=0.5, seed=3)

    def test_repeats_past_the_stack_limit(self, monkeypatch):
        ds = eval_dataset(signal=False, seed=2)
        cfg = eval_cfg()
        stacks = []

        def spy(x, y):
            stacks.append(len(x))
            return train_logistic_regression(x, y)

        monkeypatch.setattr(classify, "MAX_STACK", 2)
        monkeypatch.setattr(classify, "train_logistic_regression", spy)
        got = ug.evaluate(ds, cfg, repeats=7, seed=6)
        assert max(stacks) == 2 and sum(stacks) == 7
        assert got == reference_evaluate(ds, cfg, 7, seed=6)
