import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ugmine as ug
from conftest import DATA_DIR, all_pairs, make_random_dataset, random_connected_subgraph


def minimal_text(edges, label=1, num_nodes=3):
    import json

    return json.dumps(
        {"num_nodes": num_nodes, "graphs": [{"id": "a", "label": label, "edges": edges}]}
    )


class TestParse:
    def test_minimal_wellformed(self):
        ds = ug.parse_dataset(minimal_text([[0, 1, 0.8]]))
        assert ds.num_nodes == 3
        assert ds.n_pos == 1 and ds.n_neg == 0
        assert ds.graphs[0].edges == {(0, 1): 0.8}

    def test_self_loop_rejected(self):
        with pytest.raises(ug.DatasetFormatError, match="self-loop"):
            ug.parse_dataset(minimal_text([[0, 0, 0.5]]))

    @pytest.mark.parametrize("p", [1.2, 0.0, -0.1])
    def test_probability_out_of_range(self, p):
        with pytest.raises(ug.DatasetFormatError, match="out of range"):
            ug.parse_dataset(minimal_text([[0, 1, p]]))

    def test_bad_label(self):
        with pytest.raises(ug.DatasetFormatError, match="graph 0.*label"):
            ug.parse_dataset(minimal_text([[0, 1, 0.5]], label=2))

    def test_boolean_label_rejected(self):
        with pytest.raises(ug.DatasetFormatError, match="graph 0.*label"):
            ug.parse_dataset(minimal_text([[0, 1, 0.5]], label=True))

    @pytest.mark.parametrize("edge", [[True, 2, 0.5], [0, False, 0.5]])
    def test_boolean_endpoint_rejected(self, edge):
        with pytest.raises(ug.DatasetFormatError, match="endpoints must be integers"):
            ug.parse_dataset(minimal_text([edge]))

    def test_boolean_num_nodes_rejected(self):
        with pytest.raises(ug.DatasetFormatError, match="num_nodes"):
            ug.parse_dataset(minimal_text([[0, 1, 0.5]], num_nodes=True))

    def test_endpoint_outside_universe(self):
        with pytest.raises(ug.DatasetFormatError, match="graph 0, edge 0"):
            ug.parse_dataset(minimal_text([[0, 7, 0.5]]))

    def test_duplicate_after_canonicalization(self):
        with pytest.raises(ug.DatasetFormatError, match="duplicate"):
            ug.parse_dataset(minimal_text([[0, 1, 0.5], [1, 0, 0.6]]))

    def test_malformed_json(self):
        with pytest.raises(ug.DatasetFormatError, match="malformed"):
            ug.parse_dataset(b"{not json")

    def test_unordered_pairs_canonicalized(self):
        ds = ug.parse_dataset(minimal_text([[2, 0, 0.5]]))
        assert ds.graphs[0].edges == {(0, 2): 0.5}


class TestContains:
    def test_subset(self):
        g = ug.Subgraph.from_edges([(0, 1)])
        graph = ug.CertainGraph(3, frozenset({(0, 1), (1, 2)}))
        assert ug.contains(g, graph)

    def test_missing_edge(self):
        g = ug.Subgraph.from_edges([(0, 2)])
        graph = ug.CertainGraph(3, frozenset({(0, 1), (1, 2)}))
        assert not ug.contains(g, graph)

    def test_equality_case(self):
        g = ug.Subgraph.from_edges([(0, 1), (1, 2)])
        graph = ug.CertainGraph(3, frozenset({(0, 1), (1, 2)}))
        assert ug.contains(g, graph)


class TestContainmentProbability:
    def test_fig2_path(self, fig2):
        g = ug.Subgraph.from_edges([(0, 1), (1, 2)])
        assert ug.containment_probability(g, fig2.graphs[0]) == pytest.approx(0.72, abs=1e-12)

    def test_absent_edge_gives_zero(self, fig2):
        g = ug.Subgraph.from_edges([(0, 2)])
        assert ug.containment_probability(g, fig2.graphs[2]) == 0.0

    def test_single_edge(self, fig2):
        g = ug.Subgraph.from_edges([(0, 1)])
        assert ug.containment_probability(g, fig2.graphs[0]) == 0.8

    def test_matches_world_enumeration(self):
        rng = random.Random(7)
        for _ in range(25):
            ds = make_random_dataset(rng, n_graphs=1, num_nodes=4, max_edges=4)
            graph = ds.graphs[0]
            if not graph.edges:
                continue
            single = ug.Dataset(4, (graph,), (1,))
            g = random_connected_subgraph(rng, sorted(graph.edges))
            direct = ug.containment_probability(g, graph)
            summed = sum(
                w.probability
                for w in ug.enumerate_worlds(single)
                if ug.contains(g, w.graphs[0])
            )
            assert direct == pytest.approx(summed, abs=1e-12)

    def test_anti_monotone_under_extension(self):
        rng = random.Random(11)
        for _ in range(50):
            ds = make_random_dataset(rng, n_graphs=1, num_nodes=5, max_edges=6)
            graph = ds.graphs[0]
            universe = sorted(graph.edges)
            if len(universe) < 2:
                continue
            g = random_connected_subgraph(rng, universe, max_size=2)
            from conftest import extend_subgraph

            sup = extend_subgraph(rng, g, universe, extra=2)
            if sup is None:
                continue
            assert ug.containment_probability(sup, graph) <= (
                ug.containment_probability(g, graph) + 1e-12
            )


class TestUnionGraph:
    def test_fig2_triangle(self, fig2):
        assert sorted(ug.union_graph(fig2).edges) == [(0, 1), (0, 2), (1, 2)]

    def test_empty_dataset(self):
        ds = ug.Dataset(3, (), ())
        assert ug.union_graph(ds).edges == frozenset()

    def test_single_graph(self, fig2):
        ds = ug.Dataset(3, (fig2.graphs[3],), (1,))
        assert ug.union_graph(ds).edges == frozenset(fig2.graphs[3].edges)


class TestSerialize:
    def test_fixture_round_trip(self, fig2):
        data = (DATA_DIR / "fig2.json").read_bytes()
        assert ug.parse_dataset(data) == fig2
        assert ug.serialize_dataset(fig2) == data

    def test_decimal_fidelity(self):
        g = ug.UncertainGraph(2, {(0, 1): 0.55})
        ds = ug.Dataset(2, (g,), (1,))
        assert b"0.55" in ug.serialize_dataset(ds)

    def test_ordering_preserved(self, fig2):
        ds = ug.parse_dataset(ug.serialize_dataset(fig2))
        assert ds.ids == ("g1", "g2", "g3", "g4")
        assert ds.labels == (1, 1, -1, -1)

    def test_random_round_trip(self):
        rng = random.Random(3)
        for _ in range(20):
            ds = make_random_dataset(rng, num_nodes=5, max_edges=5)
            assert ug.parse_dataset(ug.serialize_dataset(ds)) == ds


@st.composite
def datasets(draw):
    num_nodes = draw(st.integers(2, 5))
    pairs = all_pairs(num_nodes)
    n_graphs = draw(st.integers(1, 4))
    graphs = []
    labels = []
    for _ in range(n_graphs):
        subset = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=4))
        probs = draw(
            st.lists(
                st.floats(0.001, 1.0, allow_nan=False),
                min_size=len(subset),
                max_size=len(subset),
            )
        )
        graphs.append(ug.UncertainGraph(num_nodes, dict(zip(subset, probs))))
        labels.append(draw(st.sampled_from([1, -1])))
    return ug.Dataset(num_nodes, tuple(graphs), tuple(labels))


@settings(max_examples=60, deadline=None)
@given(datasets())
def test_round_trip_identity(ds):
    assert ug.parse_dataset(ug.serialize_dataset(ds)) == ds


class TestSubgraph:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ug.Subgraph(())

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            ug.Subgraph.from_edges([(0, 1), (2, 3)])

    def test_from_edges_canonicalizes(self):
        g = ug.Subgraph.from_edges([(2, 1), (1, 0)])
        assert g.edges == ((0, 1), (1, 2))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            ug.Subgraph.from_edges([(1, 1)])

    def test_nodes(self):
        g = ug.Subgraph.from_edges([(0, 1), (1, 2)])
        assert g.nodes == frozenset({0, 1, 2})
