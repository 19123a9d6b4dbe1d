"""Exact score distributions for subgraph features, without world enumeration.

The support count of a feature in one class is a sum of independent Bernoulli
indicators (one per graph), i.e. Poisson-binomial. Its law is computed by an
O(m^2) dynamic program; the two class marginals are independent, so their
outer product gives the exact joint law over support pairs, and every cell
maps through the score function to yield the full score distribution.

``_MeasureGrids`` is the one measure kernel: ``mine`` runs it on batches of
class marginals, ``measure_value`` and ``measure_bound`` on one feature's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from .graphs import Dataset, Subgraph, UncertainGraph, containment_probability
from .graphs import _containment_matrix
from .scores import ScoreFunction, envelope_from_grid, score_grid

EXPECTATION = "exp"
MEDIAN = "median"
MODE = "mode"
PHI_PROBABILITY = "phi-pr"

MEASURE_KINDS = (EXPECTATION, MEDIAN, MODE, PHI_PROBABILITY)

# Guard against float dust when a cumulative probability sits on the 1/2
# boundary or two grouped masses are nominally equal; both the DP route and
# the brute-force worlds route share these, so selections stay consistent.
_CDF_EPS = 1e-12
_TIE_EPS = 1e-12


@dataclass
class MultiplyAddCounter:
    """Counts scalar multiply-add operations performed by the support DP."""

    count: int = 0


@dataclass(frozen=True)
class MeasureSpec:
    """Statistic of the score distribution used to rank features."""

    kind: str
    phi: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in MEASURE_KINDS:
            raise ValueError(f"unknown measure kind {self.kind!r}; expected one of {MEASURE_KINDS}")
        if self.kind == PHI_PROBABILITY and self.phi is None:
            raise ValueError("phi threshold required for the phi-probability measure")
        if self.phi is not None and math.isnan(self.phi):  # an infinite phi is valid
            raise ValueError("phi threshold must not be NaN")
        if self.kind != PHI_PROBABILITY and self.phi is not None:
            raise ValueError(f"phi threshold only applies to phi-probability, not {self.kind!r}")


def _batched_support(probs: np.ndarray, counter: MultiplyAddCounter | None = None) -> np.ndarray:
    """Support DP for a batch of features: the single Poisson-binomial kernel.

    ``probs`` holds one row of per-graph containment probabilities per
    feature; row i of the result is the law of feature i's support count,
    entry s being Pr[exactly s successes]. Each graph is folded into every
    row at once by the convolution recurrence

        new[s] = (1 - p) * old[s] + p * old[s - 1]

    A graph whose column is 0 in every row is skipped, since folding it is an
    exact identity; cells above the number m' of folded graphs stay 0.
    Folding the j-th graph (j = 1, 2, ...) updates the j + 1 cells that can
    then be nonzero, the bottom and top ones taking their single surviving
    term: 2j multiply-adds per row, m'(m'+1) in all. The table is kept
    graph-major, (m+1) x k, so every step works in place on contiguous rows
    of length k.
    """
    k, m = probs.shape
    dist = np.zeros((m + 1, k))
    dist[0] = 1.0
    scratch = np.empty((m, k))
    ops = 0
    for j, col in enumerate(np.flatnonzero(probs.any(axis=0)).tolist()):
        p = np.ascontiguousarray(probs[:, col])
        q = 1.0 - p
        np.multiply(dist[j], p, out=dist[j + 1])
        shifted = np.multiply(dist[:j], p, out=scratch[:j])
        mid = dist[1 : j + 1]
        mid *= q
        mid += shifted
        dist[0] *= q
        ops += dist[j + 1].size + shifted.size + mid.size + dist[0].size
    if counter is not None:
        counter.count += ops
    return np.ascontiguousarray(dist.T)


def poisson_binomial(
    probs: Sequence[float], counter: MultiplyAddCounter | None = None
) -> np.ndarray:
    """Distribution of the number of successes among independent Bernoulli trials.

    Entry i of the result is Pr[exactly i successes]; m trials of nonzero
    probability cost exactly m(m+1) multiply-adds, and the others none.
    """
    return _batched_support(np.asarray(probs, dtype=float).reshape(1, -1), counter)[0]


def support_distribution(g: Subgraph, graphs: Sequence[UncertainGraph]) -> np.ndarray:
    """Exact law of the number of graphs in ``graphs`` whose world contains ``g``."""
    return poisson_binomial([containment_probability(g, graph) for graph in graphs])


def joint_distribution(pos: Sequence[float], neg: Sequence[float]) -> np.ndarray:
    """Joint law over support pairs; the class marginals are independent."""
    return np.outer(np.asarray(pos), np.asarray(neg))


def score_group_key(s: float) -> float:
    """Canonical representative of a score for grouping distribution atoms.

    Scores are merged when equal after rounding to 12 significant digits;
    +-inf are their own groups. Distinct support pairs can produce
    mathematically identical scores that differ in the last ulp, which bitwise
    grouping would split unpredictably.
    """
    if math.isinf(s):
        return s
    return float(f"{s:.12g}")


@dataclass(frozen=True)
class ScoreDistribution:
    """Grouped (score, probability) atoms, scores strictly increasing."""

    atoms: tuple[tuple[float, float], ...]

    def scores(self) -> tuple[float, ...]:
        return tuple(s for s, _ in self.atoms)

    def probabilities(self) -> tuple[float, ...]:
        return tuple(p for _, p in self.atoms)

    def total_mass(self) -> float:
        return sum(p for _, p in self.atoms)


def distribution_from_pairs(pairs: Iterable[tuple[float, float]]) -> ScoreDistribution:
    """Group raw (score, probability) pairs into a ScoreDistribution.

    Zero-probability pairs are dropped; scores are grouped by
    ``score_group_key`` and the result is sorted ascending.
    """
    grouped: dict[float, float] = {}
    for s, p in pairs:
        if p == 0.0:
            continue
        key = score_group_key(s)
        grouped[key] = grouped.get(key, 0.0) + p
    atoms = tuple(sorted(grouped.items()))
    return ScoreDistribution(atoms)


def exp_of_pairs(pairs: Iterable[tuple[float, float]]) -> float:
    """Expectation over raw (score, probability) pairs.

    Cells with zero probability never contribute, so +inf scores there are
    ignored; any +inf score with positive probability makes the whole
    expectation +inf.
    """
    total = 0.0
    has_inf = False
    for s, p in pairs:
        if p == 0.0:
            continue
        if math.isinf(s):
            has_inf = True
        else:
            total += s * p
    return math.inf if has_inf else total


def median_from_masses(scores: Sequence[float], masses: Sequence[float]) -> float:
    """Largest score S with CDF(S) <= 1/2, over atoms listed ascending.

    When even the first atom exceeds half the mass the defining set is empty;
    the smallest atom score is returned as the limiting value.
    """
    best = None
    cum = 0.0
    first = None
    for s, p in zip(scores, masses):
        if p == 0.0:
            continue
        if first is None:
            first = s
        cum += p
        if cum <= 0.5 + _CDF_EPS:
            best = s
        else:
            break
    if best is not None:
        return best
    if first is None:
        raise ValueError("empty score distribution")
    return first


def mode_from_masses(scores: Sequence[float], masses: Sequence[float]) -> float:
    """Score whose grouped probability is maximal; ties go to the smaller score."""
    best_s = None
    best_p = 0.0
    for s, p in zip(scores, masses):
        if p == 0.0:
            continue
        if best_s is None or p > best_p + _TIE_EPS:
            best_s = s
            best_p = p
    if best_s is None:
        raise ValueError("empty score distribution")
    return best_s


def phi_pr_of_pairs(pairs: Iterable[tuple[float, float]], phi: float) -> float:
    """Probability mass on raw (score, probability) pairs scoring at least phi."""
    return sum(p for s, p in pairs if s >= phi)


@lru_cache(maxsize=16)
def _score_groups(cells: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The ascending ``score_group_key`` groups of a float grid given as its
    bytes, and each cell's group in ravel order; memoized like ``score_grid``
    and read-only."""
    keys = np.array([score_group_key(s) for s in np.frombuffer(cells).tolist()])
    scores, inverse = np.unique(keys, return_inverse=True)
    ids = inverse.ravel()
    scores.flags.writeable = ids.flags.writeable = False
    return scores, ids


class _MeasureGrids:
    """Measure tables over the (n_pos+1) x (n_neg+1) support-pair grid.

    ``grid`` holds the score of every support pair (a, b). Expectation and
    phi-probability are linear in the joint law, so each reduces to a weight
    table (plus a +inf mask for expectation); they alone are ``bounded``, by
    the same weights over the grid's running maximum (``envelope_from_grid``),
    which back ``bounds`` and are built when it first runs. Median and mode
    group the cells by ``score_group_key``, once per grid (``_score_groups``),
    and walk the grouped masses.

    ``mine`` and the single-feature API both read ``values`` and ``bounds``.
    """

    def __init__(self, measure: MeasureSpec, grid: np.ndarray) -> None:
        self.kind = measure.kind
        self.phi = measure.phi
        self.bounded = self.kind in (EXPECTATION, PHI_PROBABILITY)
        if self.kind in (MEDIAN, MODE):
            self.group_scores, self.group_ids = _score_groups(grid.tobytes())
        else:
            self.grid = grid
            self.weights = self._weights(grid)

    @cached_property
    def env_weights(self) -> tuple[np.ndarray, np.ndarray | None]:
        """Weights over the grid's running maximum; built on the first ``bounds`` call."""
        return self._weights(envelope_from_grid(self.grid))

    def _weights(self, table: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Finite cell weights of a linear measure, and its +inf mask if any."""
        if self.kind == EXPECTATION:
            inf = np.isinf(table)
            return np.where(inf, 0.0, table), inf.astype(float) if inf.any() else None
        return (table >= self.phi).astype(float), None

    @staticmethod
    def _bilinear(pos: np.ndarray, table: np.ndarray, neg: np.ndarray) -> np.ndarray:
        """``pos[i] @ table @ neg[i]`` for every row i.

        Each row gets the same fixed-order arithmetic, so its result does not
        depend on the other rows of the batch, and with nonnegative laws a
        cellwise-larger table never gives a smaller result.
        """
        return ((pos[:, None, :] @ table)[:, 0, :] * neg).sum(axis=1)

    def _linear(self, pos: np.ndarray, neg: np.ndarray, weights) -> np.ndarray:
        finite, inf_mask = weights
        values = self._bilinear(pos, finite, neg)
        if inf_mask is not None:
            hits = self._bilinear((pos > 0).astype(float), inf_mask, (neg > 0).astype(float))
            values = np.where(hits > 0, math.inf, values)
        return values

    def values(self, pos: np.ndarray, neg: np.ndarray) -> np.ndarray:
        """Measure of each product law outer(pos[i], neg[i])."""
        if self.kind in (MEDIAN, MODE):
            pick = median_from_masses if self.kind == MEDIAN else mode_from_masses
            # the pickers walk Python floats: numpy scalars cost a boxing per step
            scores = self.group_scores.tolist()
            masses = (self.group_masses(np.outer(p, n)).tolist() for p, n in zip(pos, neg))
            return np.array([pick(scores, m) for m in masses])
        return self._linear(pos, neg, self.weights)

    def bounds(self, pos: np.ndarray, neg: np.ndarray) -> np.ndarray:
        """Envelope bound of each product law outer(pos[i], neg[i]), raised
        past rounding error.

        A descendant in the search tree gets its containment row by
        multiplying this row by edge rows with entries at most 1, so it is at
        most this row entrywise, also as computed: fl(a b) ≤ a when b ≤ 1. On
        the computed rows, then, the exact bound is at least the exact value
        of every descendant. Rounding is what can reverse that.

        Let u = ε/2 be the unit roundoff and n = n_pos + n_neg. All masses
        and weights are nonnegative, so a computed result is its exact sum of
        terms, each term times at most k factors (1 + δ) with |δ| ≤ u: 3 per
        folded graph in the support DP (for q = 1 - p, a product and a sum),
        so 3 n over both laws, and n + 2 in the contraction (n_pos + 1 for
        ``pos @ table``, 1 for ``* neg``, n_neg for the sum). With
        k = 4 n + 2, a computed value is at most (1 + u)^k times its exact
        value, a computed bound at least (1 - u)^k times its exact bound, and
        the raise rounds once more. So the raised bound is at least every
        descendant's computed value when the slack is at least
        (1 + u)^k / (1 - u)^(k + 1), about 1 + (8 n + 5) u. The slack is
        1 + 8 (n + 2) ε = 1 + (16 n + 32) u, twice that. Unraised, a bound
        can be an ulp below a descendant's value of 1.0 and cut a tie at θ.

        The model breaks where a product underflows below 2^-1022: its error
        is then absolute, at most 2^-1075 times the weights it later meets.
        Summed over the O(n²) operations, that stays inside the slack for a
        θ of at least about n w 2^-1022, w the largest weight; a smaller θ
        can lose a tie.
        """
        slack = 1.0 + 8 * sum(self.grid.shape) * np.finfo(float).eps
        return self._linear(pos, neg, self.env_weights) * slack

    def group_masses(self, joint: np.ndarray) -> np.ndarray:
        """Joint mass of each score group, aligned with ``group_scores``."""
        return np.bincount(self.group_ids, weights=joint.ravel(), minlength=len(self.group_scores))


def score_distribution(joint: np.ndarray, spec: ScoreFunction) -> ScoreDistribution:
    """Distribution of the score induced by a joint support-pair law."""
    grid = score_grid(spec, joint.shape[0] - 1, joint.shape[1] - 1)
    scores, ids = _score_groups(grid.tobytes())
    masses = np.bincount(ids, weights=joint.ravel(), minlength=len(scores))
    atoms = zip(scores.tolist(), masses.tolist())
    return ScoreDistribution(tuple((s, p) for s, p in atoms if p != 0.0))


def _one_row(
    pos: Sequence[float], neg: Sequence[float], score: ScoreFunction, measure: MeasureSpec
) -> tuple[_MeasureGrids, np.ndarray, np.ndarray]:
    """The kernel ``mine`` runs, and one feature's class marginals as a batch of one."""
    grids = _MeasureGrids(measure, score_grid(score, len(pos) - 1, len(neg) - 1))
    return grids, np.asarray(pos, dtype=float)[None], np.asarray(neg, dtype=float)[None]


def measure_value(
    pos: Sequence[float], neg: Sequence[float], score: ScoreFunction, measure: MeasureSpec
) -> float:
    """Measure of the score law of one feature, from the laws of its positive
    and negative support counts (``support_distribution`` of each class).

    This is the row ``mine`` computes: on a mined feature's ``pos_dist`` and
    ``neg_dist`` it equals that feature's ``measure_value`` bit for bit.
    """
    grids, p, n = _one_row(pos, neg, score, measure)
    return float(grids.values(p, n)[0])


def measure_bound(
    pos: Sequence[float], neg: Sequence[float], score: ScoreFunction, measure: MeasureSpec
) -> float:
    """Upper bound on the measure of one feature and of all its supergraphs,
    from the feature's class marginals: the raised envelope bound ``mine``
    prunes with. Median and mode have no bound, so they get +inf.
    """
    grids, p, n = _one_row(pos, neg, score, measure)
    return float(grids.bounds(p, n)[0]) if grids.bounded else math.inf


def measure_from_distribution(dist: ScoreDistribution, measure: MeasureSpec) -> float:
    """Evaluate a measure directly from a grouped score distribution."""
    if measure.kind == EXPECTATION:
        return exp_of_pairs(dist.atoms)
    if measure.kind == PHI_PROBABILITY:
        assert measure.phi is not None
        return phi_pr_of_pairs(dist.atoms, measure.phi)
    pick = median_from_masses if measure.kind == MEDIAN else mode_from_masses
    return pick(dist.scores(), dist.probabilities())


def expected_frequency(g: Subgraph, dataset: Dataset) -> float:
    """Mean containment probability over the whole dataset, from ``featurize``'s column.

    Anti-monotone under subgraph extension, hence a sound frequency-pruning
    bound for the miner; it is a mined feature's ``exp_freq`` bit for bit
    (the same product, in the same order).
    """
    if len(dataset) == 0:
        raise ValueError("expected frequency needs at least one graph")
    return float(_containment_matrix(dataset, [g])[:, 0].mean())
