"""Discrimination score functions of class-support counts.

Each score maps (a, b, n_pos, n_neg) to an extended real, where a and b count
the positive and negative graphs containing a feature in one world. Scores can
reach +inf (frequency ratio and G-test when one class count is zero); they are
never NaN. Degenerate-count conventions:

* confidence(0, 0) = 0 and ratio(0, 0) = 0 (a never-supported feature is
  useless, so it gets the conservative score);
* inside the G-test, any term x*ln(r) with x = 0 contributes 0, and a term
  with x > 0 whose log has a zero denominator contributes +inf.

All logarithms are natural.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

CONFIDENCE = "conf"
FREQUENCY_RATIO = "ratio"
G_TEST = "gtest"
HSIC_LINEAR = "hsic"

SCORE_KINDS = (CONFIDENCE, FREQUENCY_RATIO, G_TEST, HSIC_LINEAR)


@dataclass(frozen=True)
class ScoreFunction:
    """A score kind plus an optional cap: values are clamped to 1/cap_epsilon.

    cap_epsilon = 0 disables capping. Capping tames the +inf values that
    otherwise dominate expectation-based ranking.
    """

    kind: str
    cap_epsilon: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in SCORE_KINDS:
            raise ValueError(f"unknown score kind {self.kind!r}; expected one of {SCORE_KINDS}")
        # NaN fails the comparison; an infinite epsilon would clamp every score to 0
        if not (isinstance(self.cap_epsilon, Real) and 0.0 <= self.cap_epsilon < math.inf):
            raise ValueError("cap_epsilon must be finite and >= 0")

    @property
    def cap(self) -> float:
        return math.inf if self.cap_epsilon == 0 else 1.0 / self.cap_epsilon


def _check_counts(a: int, b: int, n_pos: int, n_neg: int) -> None:
    if n_pos < 1 or n_neg < 1:
        raise ValueError("both classes must be nonempty to evaluate a score")
    if not (0 <= a <= n_pos):
        raise ValueError(f"positive support {a} outside [0, {n_pos}]")
    if not (0 <= b <= n_neg):
        raise ValueError(f"negative support {b} outside [0, {n_neg}]")


def _raw_score(kind: str, a: int, b: int, n_pos: int, n_neg: int) -> float:
    if kind == CONFIDENCE:
        return 0.0 if a + b == 0 else a / (a + b)
    if kind == FREQUENCY_RATIO:
        if a == 0 and b == 0:
            return 0.0
        if a == 0 or b == 0:
            return math.inf
        return abs(math.log((a * n_neg) / (b * n_pos)))
    if kind == G_TEST:
        if a == 0:
            term1 = 0.0
        elif b == 0:
            term1 = math.inf
        else:
            term1 = 2.0 * a * math.log((a * n_neg) / (b * n_pos))
        rest = n_pos - a
        if rest == 0:
            term2 = 0.0
        elif n_neg - b == 0:
            term2 = math.inf
        else:
            term2 = 2.0 * rest * math.log((n_neg * rest) / (n_pos * (n_neg - b)))
        if math.isinf(term1) or math.isinf(term2):
            return math.inf
        return term1 + term2
    if kind == HSIC_LINEAR:
        n = n_pos + n_neg
        diff = a * n_neg - b * n_pos
        return (diff * diff) / ((n - 1) ** 2 * n**2)
    raise ValueError(f"unknown score kind {kind!r}")


def eval_score(spec: ScoreFunction, a: int, b: int, n_pos: int, n_neg: int) -> float:
    """Score for support pair (a, b); capped at 1/cap_epsilon when enabled."""
    _check_counts(a, b, n_pos, n_neg)
    return min(_raw_score(spec.kind, a, b, n_pos, n_neg), spec.cap)


def _raw_grid(spec: ScoreFunction, n_pos: int, n_neg: int) -> np.ndarray:
    if n_pos < 1 or n_neg < 1:
        raise ValueError("both classes must be nonempty")
    grid = np.empty((n_pos + 1, n_neg + 1))
    for a in range(n_pos + 1):
        for b in range(n_neg + 1):
            grid[a, b] = _raw_score(spec.kind, a, b, n_pos, n_neg)
    return grid


@functools.lru_cache(maxsize=16)
def score_grid(spec: ScoreFunction, n_pos: int, n_neg: int) -> np.ndarray:
    """(n_pos+1) x (n_neg+1) matrix with cell (a, b) = eval_score(spec, a, b).

    Memoized on (spec, n_pos, n_neg), so the splits of one evaluation, which
    share their class sizes, share one grid; it is read-only.
    """
    grid = np.minimum(_raw_grid(spec, n_pos, n_neg), spec.cap)
    grid.flags.writeable = False
    return grid


def envelope_from_grid(grid: np.ndarray) -> np.ndarray:
    """Running maximum of a score grid: cell (a, b) is the max over a' <= a, b' <= b.

    table[a][b] = max(grid[a][b], table[a-1][b], table[a][b-1]), in
    O(n_pos * n_neg).
    """
    return np.maximum.accumulate(np.maximum.accumulate(grid, axis=0), axis=1)
