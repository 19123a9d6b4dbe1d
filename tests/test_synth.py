import hashlib

import numpy as np
import pytest

import ugmine as ug
from conftest import DATA_DIR, reference_generate, reference_parse
from ugmine.cli import main

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

    def test_planted_edges_drawn_as_background_keep_their_slot(self):
        """A planted edge that is also drawn as background takes the planted
        probability where it was drawn; the rest follow in planted order."""
        cfg = small_cfg(background_edges_per_graph=20)
        ds = ug.generate(cfg)
        ref = reference_generate(cfg)
        collided = 0
        for g, r in zip(ds.graphs, ref.graphs):
            assert list(g.edges.items()) == list(r.edges.items())
            collided += list(g.edges)[-3:] != list(PLANTED.edges)
        assert collided > 0

    def test_planted_signal_monotone(self):
        freqs = []
        for p in (0.3, 0.6, 0.9):
            ds = ug.generate(small_cfg(planted_prob_pos=p))
            pos_ds = ug.Dataset(8, ds.pos, (1,) * ds.n_pos)
            freqs.append(ug.expected_frequency(PLANTED, pos_ds))
        assert freqs[0] < freqs[1] < freqs[2]


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_pos", True),
        ("n_neg", 2.0),
        ("num_nodes", -1),
        ("num_nodes", 2**31 + 1),
        ("background_edges_per_graph", -1),
        ("background_edges_per_graph", 3.5),
        ("seed", -1),
        ("seed", False),
        ("planted_prob_pos", True),
        ("planted_prob_neg", "0.1"),
        ("planted_prob_neg", 1.5),
    ],
)
def test_config_names_bad_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} must") as info:
        small_cfg(**{field: value})
    assert "\n" not in str(info.value)


def test_config_normalizes_numbers():
    cfg = small_cfg(seed=np.int64(3), planted_prob_pos=1)
    assert type(cfg.seed) is int and cfg.seed == 3
    assert type(cfg.planted_prob_pos) is float and cfg.planted_prob_pos == 1.0


# SHA-256 of `ugmine gen` output, recorded from the dict-based generator and
# serializer that the reference tests below keep in conftest
GOLDEN_GEN = {
    ("fig2", 0): "393aba1945f8eb286b36e89384ddbcafb2e867ea1d7666f5e820d3b29a4f3985",
    ("fig2", 1): "393aba1945f8eb286b36e89384ddbcafb2e867ea1d7666f5e820d3b29a4f3985",
    ("adhd-like", 0): "85ef0d51f430a64d4b964c6d021b2a0655d328364af946ad44c064b72507524b",
    ("adhd-like", 1): "fc60fa21909bb49454d86ce536f90448e6d77296d1c2e1954059b212eabd7306",
    ("adni-like", 0): "6862a00205461c3882b2f0a41c7fff78664ac6bc4ed6037a1fb3a0291df81f92",
    ("adni-like", 1): "5dc427748c92b9b8048068ceacb4c8c1c9de40cb847405ead3fff382ef671372",
    ("hiv-like", 0): "3252f40632fe0c26b48e861728598591dc33fb047df76c564f12b00f1352ea4e",
    ("hiv-like", 1): "376eaa329924c9f25e15916d93f6f2a70ac892d4bdf8c56b0bedea18639f2195",
}
GOLDEN_PLANTED = "8310437651d213fa630ff43f11f764ca4653bf16c297aa5b22b736f21da9df24"


def gen_digest(tmp_path, *argv) -> str:
    out = tmp_path / "gen.json"
    assert main(["gen", *argv, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


class TestGenGolden:
    @pytest.mark.parametrize("preset, seed", sorted(GOLDEN_GEN))
    def test_presets(self, tmp_path, preset, seed):
        assert gen_digest(tmp_path, "--preset", preset, "--seed", str(seed)) == GOLDEN_GEN[preset, seed]

    def test_planted_flags(self, tmp_path):
        argv = ["--preset", "adhd-like", "--planted-prob-pos", "0.7", "--planted-prob-neg", "0.3"]
        assert gen_digest(tmp_path, *argv) == GOLDEN_PLANTED


@pytest.mark.parametrize("preset", [p for p in ug.PRESETS if p != "fig2"])
@pytest.mark.parametrize("planted", [{}, {"planted_prob_pos": 0.7, "planted_prob_neg": 0.3}])
def test_generate_matches_reference(preset, planted):
    """Every graph lists the edges and probabilities of the dict-based
    generator, in its order, and the stats agree bit for bit."""
    for seed in range(4):
        cfg = ug.preset_config(preset, seed=seed, **planted)
        ds, ref = ug.generate(cfg), reference_generate(cfg)
        assert (ds.labels, ds.ids) == (ref.labels, ref.ids)
        for g, r in zip(ds.graphs, ref.graphs, strict=True):
            assert list(g.edges.items()) == list(r.edges.items())
        got, want = ug.dataset_stats(ds), ug.dataset_stats(ref)
        assert got.mean_edges.hex() == want.mean_edges.hex()
        assert got.mean_edge_prob.hex() == want.mean_edge_prob.hex()


class TestPresets:
    def test_fig2_matches_fixture(self):
        data = ug.serialize_dataset(ug.make_preset("fig2"))
        assert data == (DATA_DIR / "fig2.json").read_bytes()

    def test_fig2_takes_no_overrides(self):
        with pytest.raises(ValueError, match="fig2.*planted_prob_pos"):
            ug.make_preset("fig2", planted_prob_pos=0.7)
        assert ug.make_preset("fig2", seed=5) == ug.fig2_dataset()

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
