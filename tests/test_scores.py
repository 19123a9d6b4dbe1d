import math
import random

import numpy as np
import pytest

import ugmine as ug
from ugmine.scores import _raw_grid, _raw_score, envelope_from_grid

KINDS = list(ug.SCORE_KINDS)


def spec(kind, cap=0.0):
    return ug.ScoreFunction(kind, cap)


def envelope(s, n_pos, n_neg):
    """The running maximum of the score grid, as the search's bound reads it."""
    return envelope_from_grid(ug.score_grid(s, n_pos, n_neg))


class TestEvalScore:
    def test_confidence_direct(self):
        assert ug.eval_score(spec("conf"), 2, 1, 3, 3) == pytest.approx(2 / 3)

    def test_ratio_balanced_is_zero(self):
        # a*n_neg == b*n_pos makes the log argument 1
        assert ug.eval_score(spec("ratio"), 2, 2, 4, 4) == 0.0
        assert ug.eval_score(spec("ratio"), 1, 2, 2, 4) == 0.0

    def test_ratio_one_sided(self):
        assert ug.eval_score(spec("ratio"), 1, 0, 2, 2) == math.inf
        assert ug.eval_score(spec("ratio", cap=0.01), 1, 0, 2, 2) == 100.0

    def test_gtest_value(self):
        assert ug.eval_score(spec("gtest"), 2, 1, 2, 2) == pytest.approx(4 * math.log(2), abs=1e-9)

    def test_hsic_symmetry_zero(self):
        assert ug.eval_score(spec("hsic"), 2, 2, 3, 3) == 0.0

    def test_hsic_value(self):
        assert ug.eval_score(spec("hsic"), 2, 0, 2, 2) == pytest.approx(1 / 9, abs=1e-12)

    def test_degenerate_conventions(self):
        assert ug.eval_score(spec("conf"), 0, 0, 3, 3) == 0.0
        assert ug.eval_score(spec("ratio"), 0, 0, 3, 3) == 0.0
        assert ug.eval_score(spec("ratio"), 0, 2, 3, 3) == math.inf
        # zero counts null out their G-test terms
        assert ug.eval_score(spec("gtest"), 0, 1, 2, 2) == pytest.approx(
            4 * math.log(2), abs=1e-9
        )
        # zero denominator inside a live log term
        assert ug.eval_score(spec("gtest"), 1, 2, 2, 2) == math.inf

    def test_gtest_nonnegative_up_to_float_dust(self):
        # the formula equals a scaled KL divergence, so only rounding error
        # can push it below zero; values are passed through unclamped
        for n_pos in range(1, 7):
            for n_neg in range(1, 7):
                for a in range(n_pos + 1):
                    for b in range(n_neg + 1):
                        assert ug.eval_score(spec("gtest"), a, b, n_pos, n_neg) >= -1e-9

    def test_precondition_errors(self):
        with pytest.raises(ValueError):
            ug.eval_score(spec("conf"), 3, 0, 2, 2)
        with pytest.raises(ValueError):
            ug.eval_score(spec("conf"), -1, 0, 2, 2)
        with pytest.raises(ValueError):
            ug.eval_score(spec("conf"), 0, 0, 0, 2)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ug.ScoreFunction("chi2")

    def test_cap_epsilon_must_be_finite_and_nonnegative(self):
        """A NaN epsilon would make every score NaN, an infinite one clamp
        every score to 0, and a negative one flip the cap's sign."""
        for eps in (math.nan, math.inf, -math.inf, -0.01):
            with pytest.raises(ValueError, match="cap_epsilon"):
                ug.ScoreFunction("conf", eps)
        assert spec("conf", 0.0).cap == math.inf

    def test_never_nan_exhaustive(self):
        for kind in KINDS:
            s = spec(kind)
            for n_pos in range(1, 13):
                for n_neg in range(1, 13):
                    for a in range(n_pos + 1):
                        for b in range(n_neg + 1):
                            value = ug.eval_score(s, a, b, n_pos, n_neg)
                            assert not math.isnan(value)

    def test_ranges(self):
        for n_pos, n_neg in [(1, 1), (3, 2), (5, 5)]:
            for a in range(n_pos + 1):
                for b in range(n_neg + 1):
                    assert 0.0 <= ug.eval_score(spec("conf"), a, b, n_pos, n_neg) <= 1.0
                    assert ug.eval_score(spec("hsic"), a, b, n_pos, n_neg) >= 0.0
                    assert ug.eval_score(spec("ratio"), a, b, n_pos, n_neg) >= 0.0


def brute_envelope(kind, a, b, n_pos, n_neg):
    """Max raw score over all support pairs (a', b') with a' <= a and b' <= b,
    the definition of an envelope cell before capping.

    Per-world supports of any supergraph are coordinate-wise below the
    feature's own, so this dominates the score of every supergraph without
    score-specific analysis.
    """
    return max(
        _raw_score(kind, aa, bb, n_pos, n_neg) for aa in range(a + 1) for bb in range(b + 1)
    )


class TestEnvelope:
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_brute_force(self, kind):
        for n_pos, n_neg in [(1, 1), (2, 3), (4, 4)]:
            for a in range(n_pos + 1):
                for b in range(n_neg + 1):
                    got = envelope(spec(kind), n_pos, n_neg)[a, b]
                    assert got == brute_envelope(kind, a, b, n_pos, n_neg)

    @pytest.mark.parametrize("kind", KINDS)
    def test_table_matches_pointwise(self, kind):
        for cap in (0.0, 0.01):
            s = spec(kind, cap)
            table = envelope(s, 4, 3)
            for a in range(5):
                for b in range(4):
                    # the cap applies after the maximum
                    assert table[a, b] == min(brute_envelope(kind, a, b, 4, 3), s.cap)

    @pytest.mark.parametrize("kind", KINDS)
    def test_table_equals_capped_running_max_of_raw(self, kind):
        # capping commutes with max, so the running max of the capped grid is
        # the capped running max of the raw grid, bit for bit
        for cap in (0.0, 0.01, 0.5, 3.0):
            s = spec(kind, cap)
            for n_pos, n_neg in [(1, 1), (2, 5), (7, 3), (40, 40), (160, 120)]:
                raw = _raw_grid(s, n_pos, n_neg)
                running = np.maximum.accumulate(np.maximum.accumulate(raw, axis=0), axis=1)
                expected = np.minimum(running, s.cap)
                assert envelope(s, n_pos, n_neg).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_monotone_in_both_arguments(self, kind):
        table = envelope(spec(kind), 5, 5)
        assert (table[1:, :] >= table[:-1, :]).all()
        assert (table[:, 1:] >= table[:, :-1]).all()

    def test_confidence_envelope_is_one(self):
        table = envelope(spec("conf"), 4, 4)
        assert (table[1:, :] == 1.0).all()
        assert (table[0, :] == 0.0).all()

    def test_ratio_envelope_infinite_uncapped(self):
        table = envelope(spec("ratio"), 3, 3)
        assert table[1, 0] == math.inf
        assert table[2, 2] == math.inf

    def test_singleton_grid(self):
        for kind in KINDS:
            assert envelope(spec(kind), 3, 3)[0, 0] == ug.eval_score(
                spec(kind), 0, 0, 3, 3
            )

    def test_envelope_dominates_eval(self):
        for kind in KINDS:
            s = spec(kind)
            for a in range(5):
                for b in range(4):
                    env = envelope(s, 4, 3)[a, b]
                    for aa in range(a + 1):
                        for bb in range(b + 1):
                            assert env >= ug.eval_score(s, aa, bb, 4, 3)

    def test_supergraph_soundness_per_world(self):
        # On certain datasets, the envelope at g's supports dominates the raw
        # score at any supergraph's supports, via support anti-monotonicity.
        rng = random.Random(5)
        from conftest import connected_edge_subsets, make_random_dataset

        for _ in range(20):
            ds = make_random_dataset(rng, n_graphs=rng.randint(2, 5), num_nodes=4, max_edges=4)
            worlds = [
                ug.CertainGraph(4, frozenset(g.edges)) for g in ds.graphs
            ]  # p=1 worlds: treat edge presence as certain
            universe = sorted({e for g in worlds for e in g.edges})
            if not universe:
                continue
            subsets = sorted(connected_edge_subsets(universe), key=sorted)
            n_pos, n_neg = ds.n_pos, ds.n_neg
            if n_pos == 0 or n_neg == 0:
                continue
            for small in subsets:
                for big in subsets:
                    if small < big:
                        gs = ug.Subgraph(tuple(sorted(small)))
                        gb = ug.Subgraph(tuple(sorted(big)))
                        sup_s = [
                            sum(
                                ug.contains(gs, w)
                                for w, y in zip(worlds, ds.labels)
                                if y == label
                            )
                            for label in (1, -1)
                        ]
                        sup_b = [
                            sum(
                                ug.contains(gb, w)
                                for w, y in zip(worlds, ds.labels)
                                if y == label
                            )
                            for label in (1, -1)
                        ]
                        for kind in KINDS:
                            env = envelope(spec(kind), n_pos, n_neg)[sup_s[0], sup_s[1]]
                            val = ug.eval_score(spec(kind), sup_b[0], sup_b[1], n_pos, n_neg)
                            assert env >= val


class TestCapping:
    def test_cap_leaves_small_values(self):
        s = spec("gtest", cap=0.01)
        raw = spec("gtest")
        for a in range(3):
            for b in range(3):
                value = ug.eval_score(raw, a, b, 2, 2)
                if value < 100.0:
                    assert ug.eval_score(s, a, b, 2, 2) == value

    def test_cap_maps_infinity(self):
        assert ug.eval_score(spec("ratio", cap=0.01), 2, 0, 2, 2) == 100.0
        assert ug.eval_score(spec("gtest", cap=0.02), 2, 0, 2, 2) == 50.0

    def test_argmax_invariant_below_cap(self):
        # any candidate set whose raw scores stay below 1/eps ranks identically
        rng = random.Random(2)
        raw = spec("conf")
        capped = spec("conf", cap=0.01)
        pairs = [(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(10)]
        raw_scores = [ug.eval_score(raw, a, b, 5, 5) for a, b in pairs]
        cap_scores = [ug.eval_score(capped, a, b, 5, 5) for a, b in pairs]
        assert max(raw_scores) < 100.0
        assert raw_scores.index(max(raw_scores)) == cap_scores.index(max(cap_scores))

    def test_cap_is_min_not_clamp(self):
        # capping only bounds from above; small values are untouched
        assert ug.eval_score(spec("gtest", cap=0.01), 1, 1, 4, 2) == ug.eval_score(
            spec("gtest"), 1, 1, 4, 2
        )


class TestScoreGridCache:
    @pytest.mark.parametrize("kind", ug.SCORE_KINDS)
    @pytest.mark.parametrize("cap", [0.0, 0.01])
    def test_read_only_and_exact(self, kind, cap):
        spec = ug.ScoreFunction(kind, cap)
        for n_pos, n_neg in ((1, 1), (3, 5), (80, 80)):
            grid = ug.score_grid(spec, n_pos, n_neg)
            assert ug.score_grid(ug.ScoreFunction(kind, cap), n_pos, n_neg) is grid
            assert not grid.flags.writeable
            with pytest.raises(ValueError):
                grid[0, 0] = 1.0
            fresh = np.minimum(_raw_grid(spec, n_pos, n_neg), spec.cap)
            assert grid.tobytes() == fresh.tobytes()
