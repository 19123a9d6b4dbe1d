"""Independent reference check of the ugmine CLI outputs the benchmark makes.

Nothing here imports ugmine. The dataset is read with the standard library's
json module into plain lists and dicts. Support laws are Poisson-binomial
distributions computed by convolving one ``[1 - p, p]`` factor per graph.
The scores, the median rule and the enumeration of connected 1- and 2-edge
subgraphs are written out again below. Each ``check_*`` function returns a
list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Tolerance on every recomputed value. Different summation orders of the same
# probabilities differ by a few ulps; 1e-9 is far above that and far below
# any difference between two distinct scores on these grids.
TOL = 1e-9
# Phi-pr values are probabilities, but summing many cell masses can land a
# few ulps above 1.
PROB_SLACK = 1e-9
# The median compares a running sum of masses with 1/2; this slack keeps an
# exact half that rounds a hair above 0.5 on the ``<= 1/2`` side.
CDF_SLACK = 1e-12

PLANTED_PATH = ((0, 1), (1, 2), (2, 3))


class Data:
    """A dataset as plain Python plus its graph-by-edge probability matrix."""

    def __init__(self, path: str) -> None:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        labels = [g["label"] for g in obj["graphs"]]
        self.graphs = [
            {(min(u, v), max(u, v)): float(p) for u, v, p in g["edges"]} for g in obj["graphs"]
        ]
        self.edges = sorted(set().union(*self.graphs))
        self.col = {e: j for j, e in enumerate(self.edges)}
        self.probs = np.zeros((len(self.graphs), len(self.edges)))
        for i, g in enumerate(self.graphs):
            for e, p in g.items():
                self.probs[i, self.col[e]] = p
        self.pos = [i for i, y in enumerate(labels) if y == 1]
        self.neg = [i for i, y in enumerate(labels) if y == -1]

    def contain(self, edges) -> np.ndarray:
        """Per-graph probability that a world holds every edge in ``edges``."""
        out = np.ones(len(self.graphs))
        for e in edges:
            if e not in self.col:
                return np.zeros(len(self.graphs))
            out = out * self.probs[:, self.col[e]]
        return out


def poisson_binomial(ps) -> np.ndarray:
    """Law of the number of successes among independent Bernoulli(p) trials."""
    dist = np.ones(1)
    for p in ps:
        dist = np.convolve(dist, [1.0 - p, p])
    return dist


def conf(a: int, b: int, n_pos: int, n_neg: int) -> float:
    return 0.0 if a + b == 0 else a / (a + b)


def ratio(a: int, b: int, n_pos: int, n_neg: int) -> float:
    if a == 0 and b == 0:
        return 0.0
    if a == 0 or b == 0:
        return math.inf
    return abs(math.log((a * n_neg) / (b * n_pos)))


def score_table(score, n_pos: int, n_neg: int) -> np.ndarray:
    return np.array(
        [[score(a, b, n_pos, n_neg) for b in range(n_neg + 1)] for a in range(n_pos + 1)]
    )


def group_key(s: float) -> float:
    """Scores equal to 12 significant digits form one atom of the distribution."""
    return s if math.isinf(s) else float(f"{s:.12g}")


def median(keys: np.ndarray, joint: np.ndarray) -> float:
    """Largest grouped score whose CDF is at most 1/2.

    When the smallest atom alone holds more than half the mass no score
    qualifies, and the smallest atom is returned, as the program documents.
    """
    mass: dict[float, float] = {}
    for k, p in zip(keys.ravel(), joint.ravel()):
        if p != 0.0:
            mass[k] = mass.get(k, 0.0) + p
    atoms = sorted(mass.items())
    best = atoms[0][0]
    cum = 0.0
    for k, p in atoms:
        cum += p
        if cum > 0.5 + CDF_SLACK:
            break
        best = k
    return best


class Measures:
    """Measure values of features of one dataset, from their containment rows."""

    def __init__(self, data: Data, phi: float) -> None:
        self.pos, self.neg = data.pos, data.neg
        n_pos, n_neg = len(data.pos), len(data.neg)
        self.conf_keys = np.vectorize(group_key)(score_table(conf, n_pos, n_neg))
        self.ratio_hit = score_table(ratio, n_pos, n_neg) >= phi

    def joint(self, contain: np.ndarray) -> np.ndarray:
        return np.outer(poisson_binomial(contain[self.pos]), poisson_binomial(contain[self.neg]))

    def median_conf(self, contain: np.ndarray) -> float:
        return median(self.conf_keys, self.joint(contain))

    def phi_pr_ratio(self, contain: np.ndarray) -> float:
        return float(self.joint(contain)[self.ratio_hit].sum())


def connected(edges) -> bool:
    if not edges:
        return False
    nodes = {n for e in edges for n in e}
    seen = {edges[0][0]}
    grew = True
    while grew:
        grew = False
        for u, v in edges:
            if (u in seen) != (v in seen):
                seen.update((u, v))
                grew = True
    return seen == nodes


def frequent_small_subgraphs(data: Data, min_sup: float) -> tuple[list, np.ndarray]:
    """Every connected 1- and 2-edge subgraph with expected frequency above min_sup.

    Two distinct edges form a connected subgraph exactly when they share a
    node, and then they share one node only, so pairs are enumerated once,
    at their shared node. Returns the edge lists and their containment rows.
    """
    subs: list[tuple] = []
    rows: list[np.ndarray] = []
    probs = data.probs
    freq = probs.mean(axis=0)
    for j in np.flatnonzero(freq > min_sup):
        subs.append((data.edges[j],))
        rows.append(probs[:, j])
    incident: dict[int, list[int]] = {}
    for j, (u, v) in enumerate(data.edges):
        incident.setdefault(u, []).append(j)
        incident.setdefault(v, []).append(j)
    for node in sorted(incident):
        cols = incident[node]
        block = probs[:, cols]
        # The matrix product only preselects pairs; the kept ones are those
        # whose own row mean is above min_sup, as for single edges.
        pair_freq = block.T @ block / len(data.graphs)
        ii, jj = np.nonzero(np.triu(pair_freq > min_sup - TOL, k=1))
        for i, j in zip(ii, jj):
            row = block[:, i] * block[:, j]
            if row.mean() > min_sup:
                subs.append(tuple(sorted((data.edges[cols[i]], data.edges[cols[j]]))))
                rows.append(row)
    return subs, np.array(rows)


def _number(x) -> float:
    if x == "inf":
        return math.inf
    if x == "-inf":
        return -math.inf
    return float(x)


def _features(report: dict) -> list[tuple[tuple, float, float]]:
    return [
        (tuple(tuple(e) for e in f["edges"]), _number(f["measure_value"]), f["exp_freq"])
        for f in report["features"]
    ]


def _common_checks(report: dict, data: Data, min_sup: float, top: int) -> list[str]:
    problems = []
    feats = _features(report)
    if len(feats) > top:
        problems.append(f"{len(feats)} features returned, more than --top {top}")
    if len({f[0] for f in feats}) != len(feats):
        problems.append("a feature is returned twice")
    values = [f[1] for f in feats]
    if any(b > a for a, b in zip(values, values[1:])):
        problems.append("measure values increase down the list")
    for edges, _, exp_freq in feats:
        if list(edges) != sorted(set(edges)) or not connected(edges):
            problems.append(f"feature {edges} is not a canonical connected edge list")
            continue
        want = float(data.contain(edges).mean())
        if abs(exp_freq - want) > TOL:
            problems.append(f"feature {edges}: exp_freq {exp_freq} != {want}")
        if want <= min_sup:
            problems.append(f"feature {edges}: exp_freq {want} not above min_sup {min_sup}")
    return problems


def check_median(report: dict, data: Data, min_sup: float, top: int) -> list[str]:
    """Median/conf on a dataset whose only frequent edges form the planted path."""
    problems = _common_checks(report, data, min_sup, top)
    frequent = [data.edges[j] for j in np.flatnonzero(data.probs.mean(axis=0) > min_sup)]
    if frequent != list(PLANTED_PATH):
        return problems + [f"frequent single edges are {frequent}, not the planted path"]
    connected_parts = [(e,) for e in PLANTED_PATH] + [
        PLANTED_PATH[:2],
        PLANTED_PATH[1:],
        PLANTED_PATH,
    ]
    expected = [s for s in connected_parts if data.contain(s).mean() > min_sup]
    feats = _features(report)
    if sorted(f[0] for f in feats) != sorted(expected):
        problems.append(
            f"features {[f[0] for f in feats]} are not the connected subgraphs of the planted path"
        )
    measures = Measures(data, phi=math.inf)
    for edges, value, _ in feats:
        want = measures.median_conf(data.contain(edges))
        if not abs(value - want) <= TOL:
            problems.append(f"feature {edges}: median {value} != {want}")
    return problems


def check_top(report: dict, data: Data, min_sup: float, top: int, phi: float) -> list[str]:
    """Phi-pr/ratio over 1- and 2-edge features: values equal the exhaustive top-t."""
    problems = _common_checks(report, data, min_sup, top)
    feats = _features(report)
    measures = Measures(data, phi)
    for edges, value, _ in feats:
        if len(edges) > 2:
            problems.append(f"feature {edges} has more than 2 edges")
            continue
        if not -PROB_SLACK <= value <= 1.0 + PROB_SLACK:
            problems.append(f"feature {edges}: phi-pr {value} outside [0, 1]")
        want = measures.phi_pr_ratio(data.contain(edges))
        if not abs(value - want) <= TOL:
            problems.append(f"feature {edges}: phi-pr {value} != {want}")
    subs, rows = frequent_small_subgraphs(data, min_sup)
    best = sorted((measures.phi_pr_ratio(row) for row in rows), reverse=True)[:top]
    values = [f[1] for f in feats]
    if len(values) != len(best) or any(abs(a - b) > TOL for a, b in zip(values, best)):
        problems.append(
            f"top {top} values differ from the exhaustive top over {len(subs)} candidates"
        )
    return problems


def check_evaluate(report: dict, repeats: int, max_mean_error: float) -> list[str]:
    """Error rates and F1 scores of a planted-signal classification run."""
    problems = []
    errors, f1s = report["error_rates"], report["f1_scores"]
    if len(errors) != repeats or len(f1s) != repeats:
        problems.append(f"{len(errors)} error rates and {len(f1s)} F1 scores, not {repeats}")
    if not all(0.0 <= x <= 1.0 for x in errors + f1s):
        problems.append("an error rate or F1 score lies outside [0, 1]")
    if errors:
        mean = sum(errors) / len(errors)
        if abs(mean - report["mean_error"]) > TOL:
            problems.append(f"mean_error {report['mean_error']} != mean of error rates {mean}")
        if mean > max_mean_error:
            problems.append(f"mean error {mean} above {max_mean_error}")
    return problems
