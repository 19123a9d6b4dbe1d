"""Containment-probability feature matrices and a classification harness.

A graph's feature vector holds, per mined subgraph, the probability that the
graph contains it. The evaluation protocol: stratified 80/20 train/test
splits, features mined on the training portion only, a small built-in
L2-regularized logistic regression trained by full-batch gradient descent,
error rate and positive-class F1 aggregated over repeats.

``evaluate`` takes each split's training and test parts with
``Dataset.subset``, which shares the full dataset's edge table
(``graphs._EdgeTable``); so no split reads a graph's edge dict. The score
grid of the shared (n_pos, n_neg) is memoized by ``scores.score_grid``.
``featurize`` reads its features' edge rows from the same table and
multiplies them as ``mine`` does: a mined feature's column has mean ``exp_freq``.

The splits are mined first. Those with features are then trained together:
one stacked gradient descent per shape of training matrix, at most
``MAX_STACK`` splits at a time. Each model's weights are bit for bit those
of training it alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from . import miner
from .graphs import Dataset, Subgraph, _containment_matrix
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
    """Matrix of containment probabilities, one column per feature.

    Entry (i, k) equals ``containment_probability(features[k],
    dataset.graphs[i])`` bit for bit; the rows are read from the dataset's
    edge table.
    """
    if not features:
        raise ValueError("feature list must be nonempty")
    values = _containment_matrix(dataset, features)
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
# The most splits that one call of ``train_logistic_regression`` trains in
# ``evaluate``; it bounds the memory of the stacked descent.
MAX_STACK = 64


def train_logistic_regression(
    x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, float] | tuple[np.ndarray, np.ndarray]:
    """Full-batch gradient descent on the regularized logistic loss.

    ``y`` holds 0/1 targets. The intercept is not regularized. The schedule is
    fixed, so training is deterministic for identical inputs.

    ``x`` of shape (n, m) with ``y`` of shape (n,) trains one model and
    returns its weights and intercept. A stack, ``x`` of shape (s, n, m)
    with ``y`` of shape (s, n), trains s models at once and returns an
    (s, m) array of weights and an (s,) array of intercepts. Each model
    stops at the first step after which its gradients are all below 1e-9,
    and its weights equal those of training it alone, bit for bit.
    """
    if np.ndim(x) == 2:
        w, b = train_logistic_regression(np.asarray(x)[None], np.asarray(y)[None])
        return w[0], float(b[0])
    s, n, m = np.shape(x)
    weights = np.zeros((s, m))
    intercepts = np.zeros(s)
    # the models still descending: their stack positions and their state
    live = np.arange(s)
    X, Y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    W, B = weights.copy(), intercepts.copy()
    for _ in range(ITERATIONS):
        z = (X @ W[:, :, None])[:, :, 0] + B[:, None]
        err = 1.0 / (1.0 + np.exp(-z)) - Y
        gw = (X.transpose(0, 2, 1) @ err[:, :, None])[:, :, 0] / n + L2 * W
        gb = err.mean(axis=1)
        W -= LEARNING_RATE * gw
        B -= LEARNING_RATE * gb
        done = (np.abs(gw).max(axis=1, initial=0.0) < 1e-9) & (np.abs(gb) < 1e-9)
        if done.any():
            weights[live[done]], intercepts[live[done]] = W[done], B[done]
            keep = ~done
            live, X, Y, W, B = live[keep], X[keep], Y[keep], W[keep], B[keep]
            if not len(live):
                break
    weights[live], intercepts[live] = W, B
    return weights, intercepts


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


# a split that has features: its repeat, training part, test part and features
_Split = tuple[int, Dataset, Dataset, list[Subgraph]]


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
    if isinstance(repeats, bool) or not isinstance(repeats, Integral) or repeats < 1:
        raise ValueError("repeats must be >= 1")
    if dataset.n_pos < 2 or dataset.n_neg < 2:
        raise ValueError("evaluation needs at least two graphs per class")
    if not (0.0 < train_fraction < 1.0):
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    y_tests = []
    predictions: dict[int, np.ndarray] = {}  # by repeat, filled as each split is fitted
    # splits waiting to be featurized and trained, by the shape of their training matrix
    pending: dict[tuple[int, int], list[_Split]] = {}

    def fit(group: list[_Split]) -> None:
        """Train the models of ``group`` together and predict their test parts."""
        train_ms = [featurize(train, features) for _, train, _, features in group]
        x = np.stack([m.values for m in train_ms])
        y01 = np.stack([(m.labels == 1).astype(float) for m in train_ms])
        weights, intercepts = train_logistic_regression(x, y01)
        for (r, _, test, features), w, b in zip(group, weights, intercepts):
            predictions[r] = predict_labels(featurize(test, features).values, w, float(b))

    for r in range(repeats):
        rng = np.random.default_rng([seed, r])
        train_idx, test_idx = _stratified_split(dataset, train_fraction, rng)
        train = dataset.subset(train_idx)
        test = dataset.subset(test_idx)
        result = miner.mine(train, cfg)
        features = [f.subgraph for f in result.features]
        y_tests.append(np.asarray(test.labels, dtype=int))
        if not features:
            majority = 1 if train.n_pos >= train.n_neg else -1
            predictions[r] = np.full(len(test), majority)
            continue
        shape = (len(train), len(features))
        pending.setdefault(shape, []).append((r, train, test, features))
        if len(pending[shape]) == MAX_STACK:
            fit(pending.pop(shape))
    for group in pending.values():
        fit(group)
    errors = [error_rate(y, predictions[r]) for r, y in enumerate(y_tests)]
    f1s = [f1_score(y, predictions[r]) for r, y in enumerate(y_tests)]
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
