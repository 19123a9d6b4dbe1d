import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ugmine as ug
from conftest import (
    DATA_DIR,
    all_pairs,
    make_random_dataset,
    mostly,
    random_connected_subgraph,
    to_json,
)
from ugmine.graphs import EdgeColumns, _EdgeTable, _probability_matrix


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

    def test_integer_too_long_for_int(self):
        with pytest.raises(ug.DatasetFormatError, match="malformed JSON"):
            ug.parse_dataset('{"num_nodes": ' + "7" * 5000 + ', "graphs": []}')


# values shaped like a dataset, each part of which may be any JSON value
EDGE_ENTRIES = mostly(
    st.tuples(
        mostly(st.integers(0, 5)),
        mostly(st.integers(0, 5)),
        mostly(st.floats(0.01, 1.0) | st.sampled_from([1, 1e-320])),
    ).map(list)
)
GRAPH_ENTRIES = mostly(
    st.fixed_dictionaries(
        {
            "label": mostly(st.sampled_from([1, -1])),
            "edges": mostly(st.lists(EDGE_ENTRIES, max_size=4)),
        },
        optional={"id": mostly(st.text(max_size=3))},
    )
)
DATASETS = mostly(
    st.fixed_dictionaries(
        {
            "num_nodes": mostly(st.just(6) | st.integers(0, 6)),
            "graphs": mostly(st.lists(GRAPH_ENTRIES, max_size=4)),
        }
    )
)


@settings(max_examples=300, deadline=None)
@given(DATASETS, st.booleans())
def test_parse_generated_json(value, as_bytes):
    """Any JSON value parses to a Dataset or raises DatasetFormatError."""
    text = to_json(value)
    try:
        ds = ug.parse_dataset(text.encode("utf-8") if as_bytes else text)
    except ug.DatasetFormatError:
        return
    assert isinstance(ds, ug.Dataset)


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


def reference_matrix(ds: ug.Dataset) -> tuple[list, np.ndarray]:
    """Union edges and probability matrix, built graph by graph from the edge dicts."""
    edges = sorted({e for g in ds.graphs for e in g.edges})
    column = {e: j for j, e in enumerate(edges)}
    probs = np.zeros((len(edges), len(ds)))
    for i, g in enumerate(ds.graphs):
        for e, p in g.edges.items():
            probs[column[e], i] = p
    return edges, probs


def fresh(ds: ug.Dataset) -> ug.Dataset:
    """The same graphs in a new dataset, with an edge table of its own."""
    return ug.Dataset(ds.num_nodes, ds.graphs, ds.labels, ds.ids)


class TestSubset:
    """A subset's union graph and probability matrix, sliced from its parent's
    edge table, equal those of a fresh dataset of the same graphs, bit for bit;
    so do the rows of any edges built alone."""

    @staticmethod
    def assert_tables_equal(ds: ug.Dataset) -> None:
        edges, probs = reference_matrix(ds)
        rng = random.Random(len(edges))
        for d in (ds, fresh(ds)):
            universe = ug.union_graph(d)
            assert universe.columns.edges == edges
            assert universe.edges == frozenset(edges)
            every = range(len(edges))
            matrix = _probability_matrix(d, np.arange(len(edges)))
            assert matrix.shape == probs.shape
            assert matrix.tobytes() == probs.tobytes()
            # ascending, unordered and empty selections of edge columns
            picks = [sorted(rng.sample(every, len(edges) // 3)), []]
            picks.append(rng.sample(every, min(len(edges), 5)))
            for pick in picks:
                rows = _probability_matrix(d, np.array(pick, dtype=np.intp))
                assert rows.shape == (len(pick), len(d))
                for row, j in zip(rows, pick):
                    assert row.tobytes() == matrix[j].tobytes()

    def test_random_splits_of_presets(self):
        rng = np.random.default_rng(5)
        for preset in ug.PRESETS:
            ds = ug.make_preset(preset, seed=0)
            self.assert_tables_equal(ds)
            for _ in range(3):
                size = int(rng.integers(1, len(ds) + 1))
                indices = rng.choice(len(ds), size, replace=False)
                sub = ds.subset(sorted(indices.tolist()))
                assert sub == fresh(sub)
                self.assert_tables_equal(sub)
                self.assert_tables_equal(ds.subset(indices.tolist()))

    def test_labels_and_ids_follow_indices(self, fig2):
        sub = fig2.subset([3, 0])
        assert sub.labels == (-1, 1)
        assert sub.ids == ("g4", "g1")
        assert sub.graphs == (fig2.graphs[3], fig2.graphs[0])

    def test_empty_dataset(self):
        ds = ug.Dataset(3, (), ())
        self.assert_tables_equal(ds)
        self.assert_tables_equal(ds.subset([]))
        assert _probability_matrix(ds, np.arange(0)).shape == (0, 0)

    def test_graph_without_edges(self, fig2):
        empty = ug.UncertainGraph(3, {})
        ds = ug.Dataset(3, (empty,) + fig2.graphs + (empty,), (1, 1, 1, -1, -1, -1))
        self.assert_tables_equal(ds)
        for indices in ([0], [0, 5], [5, 2, 0], [1, 5]):
            self.assert_tables_equal(ds.subset(indices))
        assert _probability_matrix(ds.subset([0]), np.arange(0)).shape == (0, 1)

    def test_edges_only_in_test_part(self):
        graphs = tuple(ug.UncertainGraph(5, {e: 0.5}) for e in ((0, 1), (1, 2), (3, 4), (0, 1)))
        ds = ug.Dataset(5, graphs, (1, -1, 1, -1))
        train, test = ds.subset([0, 1, 3]), ds.subset([2])
        assert ug.union_graph(train).columns.edges == [(0, 1), (1, 2)]
        assert ug.union_graph(test).columns.edges == [(3, 4)]
        for d in (train, test):
            self.assert_tables_equal(d)

    def test_subset_of_subset(self):
        rng = random.Random(9)
        for _ in range(20):
            ds = make_random_dataset(rng, n_graphs=8, num_nodes=5, max_edges=5)
            outer = rng.sample(range(8), 5)
            inner = rng.sample(range(5), 3)
            nested = ds.subset(outer).subset(inner)
            assert nested == ds.subset([outer[j] for j in inner])
            self.assert_tables_equal(nested)


class TestContainmentFromTable:
    """``featurize`` reads the edge table and equals ``containment_probability``
    bit for bit, on whole datasets and on subsets of them."""

    @staticmethod
    def assert_bitwise(ds: ug.Dataset, features: list) -> None:
        got = ug.featurize(ds, features).values
        want = np.zeros((len(ds), len(features)))
        for i, g in enumerate(ds.graphs):
            for k, f in enumerate(features):
                want[i, k] = ug.containment_probability(f, g)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @staticmethod
    def absent_features(ds: ug.Dataset, union: list) -> list:
        """Features holding an edge that no graph of ``ds`` has, alone and
        attached to an edge that some graph has."""
        present = set(union)
        out = []
        for u, v in all_pairs(ds.num_nodes):
            if (u, v) in present:
                continue
            out.append(ug.Subgraph(((u, v),)))
            touching = [e for e in union if u in e or v in e]
            if touching:
                out.append(ug.Subgraph.from_edges([touching[0], (u, v)]))
            if len(out) >= 6:
                break
        return out

    def test_presets_and_subsets(self):
        rng = random.Random(3)
        np_rng = np.random.default_rng(3)
        for preset in ug.PRESETS:
            ds = ug.make_preset(preset, seed=0)
            union = sorted(ug.union_graph(ds).edges)
            features = [random_connected_subgraph(rng, union, max_size=4) for _ in range(25)]
            self.assert_bitwise(ds, features + self.absent_features(ds, union))
            for _ in range(3):
                size = int(np_rng.integers(1, len(ds) + 1))
                sub = ds.subset(np_rng.choice(len(ds), size, replace=False).tolist())
                self.assert_bitwise(sub, features + self.absent_features(sub, union_of(sub)))
            self.assert_bitwise(ds.subset([1, 0, 1]), features)

    def test_absent_edges_read_zero(self):
        graphs = tuple(ug.UncertainGraph(5, {e: 0.5}) for e in ((0, 1), (1, 2), (3, 4), (0, 1)))
        ds = ug.Dataset(5, graphs, (1, -1, 1, -1))
        features = [ug.Subgraph.from_edges(pairs) for pairs in ([(0, 1)], [(3, 4)], [(0, 4)])]
        self.assert_bitwise(ds, features)
        train = ds.subset([0, 1, 3])
        self.assert_bitwise(train, features)
        assert (ug.featurize(train, features).values[:, 1:] == 0).all()

    def test_empty_graphs_and_empty_dataset(self, fig2):
        empty = ug.UncertainGraph(3, {})
        ds = ug.Dataset(3, (empty,) + fig2.graphs + (empty,), (1, 1, 1, -1, -1, -1))
        features = [ug.Subgraph.from_edges([(0, 1), (1, 2)]), ug.Subgraph.from_edges([(0, 2)])]
        self.assert_bitwise(ds, features)
        self.assert_bitwise(ds.subset([0, 5]), features)
        assert ug.featurize(ds.subset([]), features).values.shape == (0, 2)

    def test_out_of_universe_rejected(self, fig2):
        outside = ug.Subgraph.from_edges([(0, 1), (1, 3)])
        for ds in (fig2, fig2.subset([2, 0])):
            with pytest.raises(ValueError, match="subgraph node 3 outside universe of 3 nodes"):
                ug.featurize(ds, [ug.Subgraph.from_edges([(0, 1)]), outside])


def union_of(ds: ug.Dataset) -> list:
    return sorted({e for g in ds.graphs for e in g.edges})


class TestOneSelectionPerSearch:
    def test_one_select_per_mine(self, monkeypatch):
        calls = []
        real = _EdgeTable.select

        def spy(table, rows):
            calls.append(len(rows))
            return real(table, rows)

        monkeypatch.setattr(_EdgeTable, "select", spy)
        cfg = ug.MiningConfig(
            t=5, min_sup=0.2, measure=ug.MeasureSpec("exp"), score=ug.ScoreFunction("conf")
        )
        for preset in ug.PRESETS:
            ds = ug.make_preset(preset, seed=0)
            calls.clear()
            ug.mine(ds, cfg)
            assert calls == [len(ds)]
            calls.clear()
            ug.mine(ds.subset(range(0, len(ds), 2)), cfg)
            assert calls == [len(range(0, len(ds), 2))]
        ds = ug.make_preset("hiv-like", seed=0)
        calls.clear()
        ug.evaluate(ds, cfg, repeats=3)
        assert calls == [40] * 3


class TestEdgeColumns:
    def test_incident_matches_reference(self):
        for preset in ug.PRESETS:
            universe = ug.union_graph(ug.make_preset(preset, seed=0))
            columns = universe.columns
            reference: dict[int, list[int]] = {}
            for j, (u, v) in enumerate(columns.edges):
                reference.setdefault(u, []).append(j)
                reference.setdefault(v, []).append(j)
            assert columns.incident.keys() == reference.keys()
            for n, js in reference.items():
                assert columns.incident[n].dtype == np.intp
                assert columns.incident[n].tolist() == js
            validated = ug.CertainGraph(universe.num_nodes, universe.edges).columns
            assert validated.edges == columns.edges
            assert validated.column == columns.column == {e: j for j, e in enumerate(columns.edges)}

    def test_node_labels_past_int64(self):
        big = 2**70
        edges = [(0, big), (1, big), (big, big + 1), (big + 1, big + 2)]
        columns = ug.CertainGraph(big + 3, frozenset(edges)).columns
        assert columns.edges == edges
        assert {n: js.tolist() for n, js in columns.incident.items()} == {
            0: [0], 1: [1], big: [0, 1, 2], big + 1: [2, 3], big + 2: [3]
        }

    def test_no_edges(self):
        columns = ug.CertainGraph(3, frozenset()).columns
        assert columns.edges == [] and columns.incident == {} and columns.column == {}


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

    def test_array_built_equals_tuple_built(self):
        """The union's columns, built from the table's endpoint array, equal
        columns built from the edge tuples."""
        for preset in ug.PRESETS:
            ds = ug.make_preset(preset, seed=0)
            for d in (ds, ds.subset(range(1, len(ds), 3))):
                columns = ug.union_graph(d).columns
                reference = EdgeColumns(list(columns.edges))
                assert columns.edges == reference.edges
                assert columns.column == reference.column
                assert columns.incident.keys() == reference.incident.keys()
                for n, js in reference.incident.items():
                    assert columns.incident[n].dtype == js.dtype
                    assert columns.incident[n].tolist() == js.tolist()

    def test_table_with_node_labels_past_int64(self):
        big = 2**70
        graphs = (
            ug.UncertainGraph(big + 3, {(0, big): 0.5, (big, big + 1): 0.25}),
            ug.UncertainGraph(big + 3, {(1, big): 0.5, (big + 1, big + 2): 0.75}),
        )
        ds = ug.Dataset(big + 3, graphs, (1, -1))
        columns = ug.union_graph(ds).columns
        assert columns.edges == [(0, big), (1, big), (big, big + 1), (big + 1, big + 2)]
        assert {n: js.tolist() for n, js in columns.incident.items()} == {
            0: [0], 1: [1], big: [0, 1, 2], big + 1: [2, 3], big + 2: [3]
        }
        feature = ug.Subgraph.from_edges([(0, big), (big, big + 1)])
        assert ug.featurize(ds, [feature]).values.tolist() == [[0.125], [0.0]]
