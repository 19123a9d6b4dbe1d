"""Containment-probability feature matrices and a classification harness.

A graph's feature vector holds, per mined subgraph, the probability that the
graph contains it. The evaluation protocol: stratified 80/20 train/test
splits, features mined on the training portion only, a small built-in
L2-regularized logistic regression trained by full-batch gradient descent,
error rate and positive-class F1 aggregated over repeats.

``evaluate`` takes each split's training and test parts with
``Dataset.subset``. The full dataset's edge table (``graphs._EdgeTable``)
is built once, when the first split is taken, and every subset slices it by
row, so no split walks the edge dicts again; the score grid of the shared
(n_pos, n_neg) is memoized by ``scores.score_grid``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import miner
from .graphs import Dataset, Subgraph, containment_probability
from .miner import MiningConfig


@dataclass(frozen=True)
class FeatureMatrix:
    """Row per graph, column per subgraph feature; entries in [0, 1]."""

    values: np.ndarray
    labels: np.ndarray


@dataclass(frozen=True)
class EvalReport:
    error_rates: tuple[float, ...]
    f1_scores: tuple[float, ...]
    mean_error: float
    std_error: float
    mean_f1: float
    std_f1: float


def featurize(dataset: Dataset, features: list[Subgraph]) -> FeatureMatrix:
    """Matrix of containment probabilities, one column per feature."""
    if not features:
        raise ValueError("feature list must be nonempty")
    values = np.empty((len(dataset), len(features)))
    for k, f in enumerate(features):
        for i, g in enumerate(dataset.graphs):
            values[i, k] = containment_probability(f, g)
    return FeatureMatrix(values, np.asarray(dataset.labels, dtype=int))


def export_csv(matrix: FeatureMatrix) -> bytes:
    """CSV with header g_0,...,g_{m-1},label; one row per graph."""
    n, m = matrix.values.shape
    lines = [",".join([f"g_{k}" for k in range(m)] + ["label"])]
    for i in range(n):
        cells = [repr(float(x)) for x in matrix.values[i]]
        cells.append(str(int(matrix.labels[i])))
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode("utf-8")


# L2 penalty on the weights, gradient-descent step size and iteration budget
L2 = 0.01
LEARNING_RATE = 0.5
ITERATIONS = 400


def train_logistic_regression(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Full-batch gradient descent on the regularized logistic loss.

    ``y`` holds 0/1 targets. The intercept is not regularized. The schedule is
    fixed, so training is deterministic for identical inputs.
    """
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


def predict_labels(x: np.ndarray, w: np.ndarray, b: float) -> np.ndarray:
    """+1/-1 predictions at the 0.5 probability threshold."""
    z = x @ w + b
    return np.where(z >= 0.0, 1, -1)


def error_rate(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    return float(np.mean(y_true != y_pred))


def f1_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """F1 of the positive class; 0 when there are no positives anywhere."""
    tp = int(np.sum((y_true == 1) & (y_pred == 1)))
    fp = int(np.sum((y_true == -1) & (y_pred == 1)))
    fn = int(np.sum((y_true == 1) & (y_pred == -1)))
    denom = 2 * tp + fp + fn
    return 0.0 if denom == 0 else 2 * tp / denom


def _stratified_split(dataset: Dataset, train_fraction: float, rng: np.random.Generator):
    train_idx: list[int] = []
    test_idx: list[int] = []
    for cls_indices in (dataset.pos_indices, dataset.neg_indices):
        if len(cls_indices) < 2:
            raise ValueError("each class needs >= 2 graphs for a stratified split")
        perm = rng.permutation(len(cls_indices))
        n_train = int(round(train_fraction * len(cls_indices)))
        n_train = min(max(n_train, 1), len(cls_indices) - 1)
        train_idx.extend(cls_indices[j] for j in perm[:n_train])
        test_idx.extend(cls_indices[j] for j in perm[n_train:])
    return sorted(train_idx), sorted(test_idx)


def evaluate(
    dataset: Dataset,
    cfg: MiningConfig,
    repeats: int = 20,
    train_fraction: float = 0.8,
    seed: int = 0,
) -> EvalReport:
    """Repeated stratified split evaluation; mining sees only the training part.

    Splits where mining yields no features fall back to predicting the
    training-majority class.
    """
    if dataset.n_pos < 2 or dataset.n_neg < 2:
        raise ValueError("evaluation needs at least two graphs per class")
    if not (0.0 < train_fraction < 1.0):
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    errors = []
    f1s = []
    for r in range(repeats):
        rng = np.random.default_rng([seed, r])
        train_idx, test_idx = _stratified_split(dataset, train_fraction, rng)
        train = dataset.subset(train_idx)
        test = dataset.subset(test_idx)
        result = miner.mine(train, cfg)
        features = [f.subgraph for f in result.features]
        y_test = np.asarray(test.labels, dtype=int)
        if not features:
            majority = 1 if train.n_pos >= train.n_neg else -1
            y_pred = np.full(len(y_test), majority)
        else:
            train_m = featurize(train, features)
            test_m = featurize(test, features)
            y01 = (train_m.labels == 1).astype(float)
            w, b = train_logistic_regression(train_m.values, y01)
            y_pred = predict_labels(test_m.values, w, b)
        errors.append(error_rate(y_test, y_pred))
        f1s.append(f1_score(y_test, y_pred))
    err = np.asarray(errors)
    f1 = np.asarray(f1s)
    return EvalReport(
        error_rates=tuple(errors),
        f1_scores=tuple(f1s),
        mean_error=float(err.mean()),
        std_error=float(err.std()),
        mean_f1=float(f1.mean()),
        std_f1=float(f1.std()),
    )
