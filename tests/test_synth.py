import math

import pytest

import ugmine as ug
from conftest import DATA_DIR, reference_parse

PLANTED = ug.Subgraph.from_edges([(0, 1), (1, 2), (2, 3)])


def small_cfg(**overrides):
    base = dict(
        seed=1,
        n_pos=5,
        n_neg=5,
        num_nodes=8,
        background_edges_per_graph=6,
        background_prob_range=(0.3, 0.8),
        planted=PLANTED,
        planted_prob_pos=0.9,
        planted_prob_neg=0.1,
    )
    base.update(overrides)
    return ug.SynthConfig(**base)


class TestGenerate:
    def test_deterministic(self):
        assert ug.generate(small_cfg()) == ug.generate(small_cfg())

    def test_seed_changes_output(self):
        assert ug.generate(small_cfg()) != ug.generate(small_cfg(seed=2))

    def test_labels_and_counts(self):
        ds = ug.generate(small_cfg())
        assert ds.n_pos == 5 and ds.n_neg == 5
        assert ds.labels == (1,) * 5 + (-1,) * 5

    def test_planted_overwrites_background(self):
        ds = ug.generate(small_cfg())
        for g, y in zip(ds.graphs, ds.labels):
            want = 0.9 if y == 1 else 0.1
            for e in PLANTED.edges:
                assert g.edges[e] == want
        # planted containment is exactly the probability power
        for g, y in zip(ds.graphs, ds.labels):
            want = (0.9 if y == 1 else 0.1) ** 3
            assert ug.containment_probability(PLANTED, g) == pytest.approx(want, abs=1e-15)

    def test_probabilities_in_range(self):
        ds = ug.generate(small_cfg())
        lo, hi = 0.3, 0.8
        for g in ds.graphs:
            for e, p in g.edges.items():
                if e in set(PLANTED.edges):
                    continue
                assert lo <= p < hi

    def test_too_many_background_edges(self):
        with pytest.raises(ValueError, match="node pairs"):
            small_cfg(background_edges_per_graph=100)

    def test_planted_must_fit(self):
        with pytest.raises(ValueError, match="fit"):
            small_cfg(num_nodes=3)

    def test_zero_signal_symmetric(self):
        ds = ug.generate(small_cfg(planted_prob_pos=0.5, planted_prob_neg=0.5))
        pos_mean = sum(ug.containment_probability(PLANTED, g) for g in ds.pos) / ds.n_pos
        neg_mean = sum(ug.containment_probability(PLANTED, g) for g in ds.neg) / ds.n_neg
        assert pos_mean == neg_mean == 0.5**3

    def test_planted_signal_monotone(self):
        freqs = []
        for p in (0.3, 0.6, 0.9):
            ds = ug.generate(small_cfg(planted_prob_pos=p))
            pos_ds = ug.Dataset(8, ds.pos, (1,) * ds.n_pos)
            freqs.append(ug.expected_frequency(PLANTED, pos_ds))
        assert freqs[0] < freqs[1] < freqs[2]


class TestPresets:
    def test_fig2_matches_fixture(self):
        data = ug.serialize_dataset(ug.make_preset("fig2"))
        assert data == (DATA_DIR / "fig2.json").read_bytes()

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            ug.make_preset("mnist")

    def test_adhd_like_shape(self):
        ds = ug.make_preset("adhd-like", seed=0)
        stats = ug.dataset_stats(ds)
        assert stats.n_graphs == 200
        assert stats.n_pos == stats.n_neg == 100
        assert stats.num_nodes == 116
        assert abs(stats.mean_edges - 484.7) / 484.7 < 0.02
        assert abs(stats.mean_edge_prob - 0.55) < 0.02

    def test_hiv_like_shape(self):
        stats = ug.dataset_stats(ug.make_preset("hiv-like", seed=0))
        assert stats.n_graphs == 50
        assert stats.num_nodes == 90
        assert abs(stats.mean_edges - 480.5) / 480.5 < 0.02
        assert abs(stats.mean_edge_prob - 0.88) < 0.02

    def test_adni_like_shape(self):
        stats = ug.dataset_stats(ug.make_preset("adni-like", seed=0))
        assert stats.n_graphs == 36
        assert stats.num_nodes == 90
        assert abs(stats.mean_edges - 2019.8) / 2019.8 < 0.02
        assert abs(stats.mean_edge_prob - 0.59) < 0.02


class TestStats:
    def test_fig2(self, fig2):
        stats = ug.dataset_stats(fig2)
        assert stats.n_graphs == 4
        assert stats.n_pos == stats.n_neg == 2
        assert stats.num_nodes == 3
        assert stats.mean_edges == pytest.approx(2.5)
        assert not stats.empty

    def test_empty(self):
        stats = ug.dataset_stats(ug.Dataset(3, (), ()))
        assert stats.empty
        assert stats.n_graphs == 0
        assert stats.mean_edges == 0.0

    def test_table_means_equal_dict_means(self):
        """Read from the edge table, the means are bit for bit those summed
        over the graphs' edge dicts, on parsed datasets and their subsets."""
        for preset in ug.PRESETS:
            data = ug.serialize_dataset(ug.make_preset(preset, seed=2))
            parsed, made = ug.parse_dataset(data), reference_parse(data)
            for ds, ref in ((parsed, made), (parsed.subset([3, 0, 2]), made.subset([3, 0, 2]))):
                probs = [p for g in ref.graphs for p in g.edges.values()]
                stats = ug.dataset_stats(ds)
                assert stats.mean_edge_prob.hex() == (sum(probs) / len(probs)).hex()
                assert stats.mean_edges.hex() == (len(probs) / len(ref)).hex()
        empty = ug.Dataset(2, (ug.UncertainGraph(2, {}),), (1,))
        assert ug.dataset_stats(empty).mean_edge_prob == 0.0
