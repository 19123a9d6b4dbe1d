import contextlib
import itertools
import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ugmine as ug
from conftest import (
    DATA_DIR,
    JSON_VALUES,
    _subset_connected,
    all_pairs,
    make_random_dataset,
    mostly,
    random_connected_subgraph,
    reference_parse,
    reference_serialize,
    reference_table,
    to_json,
)
from ugmine import graphs, miner
from ugmine.graphs import (
    EdgeColumns,
    _edge_counts,
    _edge_rows,
    _decode_edges,
    _EdgeTable,
    _listed_probabilities,
    _table_dataset,
)


def union_rows(d: ug.Dataset, edges) -> np.ndarray:
    """The rows of the union graph's edge columns ``edges``, read from the edge table."""
    return _edge_rows(d, np.flatnonzero(_edge_counts(d))[np.asarray(edges, dtype=np.intp)])


def minimal_text(edges, label=1, num_nodes=3):
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

    def test_num_nodes_past_the_cap_rejected(self):
        """Labels are machine integers: num_nodes is at most 2^31."""
        assert ug.parse_dataset(minimal_text([[0, 2**31 - 1, 0.5]], num_nodes=2**31))
        with pytest.raises(
            ug.DatasetFormatError,
            match="^num_nodes must be a nonnegative integer, at most 2147483648$",
        ):
            ug.parse_dataset(minimal_text([[0, 1, 0.5]], num_nodes=2**31 + 1))

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


def rarely(sane, odd):
    """Values of ``sane``, but in one draw of eight one of ``odd``."""
    return st.integers(0, 7).flatmap(lambda k: odd if k == 0 else sane)


# node labels and probabilities at and past the node cap and the int64 and float ranges
BIG_INTS = [2**31 - 1, 2**31, 2**63 - 1, 2**63, 2**64, -(2**63) - 1, 2**70]
ENDPOINTS = rarely(
    st.integers(-1, 6), st.sampled_from([True, False, 1.0, "2", None, *BIG_INTS])
)
PROBABILITIES = rarely(
    st.floats(0.01, 1.0) | st.sampled_from([1, 1e-320]),
    st.sampled_from(
        [0, 0.0, -0.0, 2, 1.5, -0.25, True, False, "0.5", None, math.nan, math.inf, -math.inf]
        + [2**64, 2**1100, -(2**1100)]
    ),
)
# an ``edges`` key where no graph's edges belong
ODD_EDGES = st.fixed_dictionaries({"edges": st.just([[0, 1, 0.5], [1, 2, 1]])})
NOISY_ENTRIES = rarely(
    st.tuples(ENDPOINTS, ENDPOINTS, PROBABILITIES).map(list),
    st.sampled_from([[0, 1], [0, 1, 0.5, 0], "e", [[0, 1, 0.5]]])
    | ODD_EDGES
    | st.tuples(ENDPOINTS, ENDPOINTS, ODD_EDGES).map(list),
)


@st.composite
def valid_entries(draw):
    """Distinct edges in either orientation, over small labels or the largest
    labels below the cap of 2^31 nodes, with probabilities in (0, 1]."""
    nodes = draw(st.sampled_from([range(6), [0, 1, 2**31 - 3, 2**31 - 2, 2**31 - 1]]))
    pairs = [(u, v) for u in nodes for v in nodes if u < v]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=6))
    entries = []
    for u, v in chosen:
        p = draw(st.floats(0.001, 1.0) | st.just(1))
        entries.append([v, u, p] if draw(st.booleans()) else [u, v, p])
    return entries


@st.composite
def edge_lists(draw):
    """Valid or noisy edge lists; some repeat an entry, as written or reversed."""
    entries = draw(valid_entries() | st.lists(NOISY_ENTRIES, max_size=6))
    if entries and draw(st.booleans()):
        e = draw(st.sampled_from(entries))
        if isinstance(e, list) and len(e) == 3:
            e = [e[1], e[0], e[2]] if draw(st.booleans()) else list(e)
        entries.insert(draw(st.integers(0, len(entries))), e)
    return entries


LABELS = rarely(
    st.sampled_from([1, -1]),
    st.sampled_from([1.0, True, 2, None]) | st.fixed_dictionaries({"edges": edge_lists()}),
)
GRAPHS = rarely(
    st.fixed_dictionaries(
        {"label": LABELS, "edges": rarely(edge_lists(), JSON_VALUES | ODD_EDGES)},
        optional={"id": rarely(st.text(max_size=2), st.integers(0, 3))},
    ),
    JSON_VALUES,
)
VALID_GRAPHS = st.fixed_dictionaries(
    {"label": st.sampled_from([1, -1]), "edges": valid_entries()},
    optional={"id": st.text(max_size=2)},
)
# half the documents are valid when their labels fit num_nodes, and half are noisy
DOCUMENTS = st.fixed_dictionaries(
    {"num_nodes": st.sampled_from([6, 2**31]), "graphs": st.lists(VALID_GRAPHS, max_size=4)}
) | st.fixed_dictionaries(
    {
        "num_nodes": rarely(
            st.sampled_from([6, 2**31, 2**31 + 1, 2**64, 2**70]) | st.integers(0, 7),
            st.sampled_from([-1, True, 7.0, None]),
        ),
        "graphs": st.lists(GRAPHS, max_size=4),
    },
    optional={"edges": edge_lists()},
)


def table_fields(table) -> dict[str, object]:
    return {k: getattr(table, k) for k in ("edges", "ends", "offsets", "cols", "probs")}


def assert_same_parse(text: str, parse=ug.parse_dataset) -> None:
    """``parse(text)`` returns the dataset ``reference_parse`` returns, with
    the same edge table, or raises the same message."""
    try:
        want = reference_parse(text)
    except ug.DatasetFormatError as exc:
        with pytest.raises(ug.DatasetFormatError) as got:
            parse(text)
        assert str(got.value) == str(exc)
        return
    got = parse(text)
    table, rows = got._edge_table
    assert rows.tolist() == list(range(len(want)))
    ref = reference_table(want.graphs)
    for name, value in table_fields(table).items():
        if name == "edges":
            assert value == ref[name]
        else:
            assert value.dtype == ref[name].dtype and value.shape == ref[name].shape
            assert value.tobytes() == ref[name].tobytes()
    assert (got.num_nodes, repr(got.labels), got.ids) == (want.num_nodes, repr(want.labels), want.ids)
    for g, w in zip(got.graphs, want.graphs, strict=True):
        assert repr(list(g.edges.items())) == repr(list(w.edges.items()))
    assert got == want


ERROR_ORDER_EXAMPLES = [
    # graph 1's entry error is of an earlier kind than graph 0's duplicate
    {"num_nodes": 4, "graphs": [
        {"label": 1, "edges": [[0, 1, 0.5], [1, 0, 0.5]]},
        {"label": -1, "edges": [[0, 1]]},
    ]},
    # in one graph, an out-of-range edge before a self-loop
    {"num_nodes": 3, "graphs": [{"label": 1, "edges": [[0, 7, 0.5], [1, 1, 0.5]]}]},
    # a NaN probability after a valid entry, with an int probability
    {"num_nodes": 3, "graphs": [{"label": 1, "edges": [[0, 1, 1], [1, 2, math.nan]]}]},
    # a label holding a well-typed edge list, with an int probability
    {"num_nodes": 3, "graphs": [{"label": {"edges": [[0, 1, 1], [1, 2, 0.5]]}, "edges": []}]},
    # a graph of the largest labels, then a graph with an endpoint one past them
    {"num_nodes": 2**31, "graphs": [
        {"label": 1, "edges": [[2**31 - 1, 0, 0.5]]},
        {"label": 1, "edges": [[0, 2**31, 0.5]]},
    ]},
    # a valid graph, then a graph with an endpoint past int64, left undecoded
    {"num_nodes": 2**31, "graphs": [
        {"label": 1, "edges": [[2**31 - 1, 0, 0.5]]},
        {"label": 1, "edges": [[0, 2**64, 0.5]]},
    ]},
    # one node past the cap
    {"num_nodes": 2**31 + 1, "graphs": [{"label": 1, "edges": [[0, 1, 0.5]]}]},
    {"num_nodes": 3, "graphs": [], "edges": [[0, 1, 0.5]]},
    # bools and floats where ints or numbers belong, in otherwise valid graphs
    {"num_nodes": 3, "graphs": [{"label": 1, "edges": [[0, 2, 0.5], [True, False, 0.5]]}]},
    {"num_nodes": 3, "graphs": [{"label": 1, "edges": [[0, 2, 0.5], [0, 1, True]]}]},
    {"num_nodes": 3, "graphs": [{"label": 1, "edges": [[0, 2, 0.5], [0.0, 1.0, 0.5]]}]},
    # a graph decoded into arrays with an endpoint out of range, then a bad label
    {"num_nodes": 3, "graphs": [
        {"label": 1, "edges": [[0, 1, 0.5], [1, 7, 0.5]]},
        {"label": 2, "edges": [[0, 1, 0.5]]},
    ]},
    # a duplicate in one decoded graph, then an endpoint out of range in the next
    {"num_nodes": 3, "graphs": [
        {"label": 1, "edges": [[0, 1, 0.5], [1, 0, 0.5]]},
        {"label": -1, "edges": [[0, 9, 0.5]]},
    ]},
    # an endpoint out of range in one decoded graph, then a duplicate in the next
    {"num_nodes": 3, "graphs": [
        {"label": 1, "edges": [[2, 5, 0.5]]},
        {"label": -1, "edges": [[0, 1, 0.5], [1, 0, 0.5]]},
    ]},
    # an entry out of range whose endpoints are listed high to low
    {"num_nodes": 3, "graphs": [{"label": 1, "edges": [[0, 1, 0.5], [5, 0, 0.5]]}]},
    # a decoded graph with a NaN, then a graph left as decoded with a bool endpoint
    {"num_nodes": 3, "graphs": [
        {"label": 1, "edges": [[2, 1, math.nan]]},
        {"label": 1, "edges": [[0, True, 0.5]]},
    ]},
]


@settings(max_examples=300, deadline=None)
@given(edge_lists(), st.sampled_from([0, 3, 6, 2**31]) | st.integers(0, 2**31))
def test_undecoded_edge_list_is_refused(entries, num_nodes):
    """Every nonempty edge list the decoder leaves as a list breaks a rule
    when num_nodes is at most 2^31, so a valid graph's edges are always
    decoded into arrays."""
    text = to_json({"num_nodes": num_nodes, "graphs": [{"label": 1, "edges": entries}]})
    edges = json.loads(text, object_hook=_decode_edges)["graphs"][0]["edges"]
    if type(edges) is list and edges:
        with pytest.raises(ug.DatasetFormatError, match="^graph 0, edge "):
            ug.parse_dataset(text)


@settings(max_examples=400, deadline=None)
@given(DOCUMENTS)
def test_parse_matches_reference(value):
    """Valid or not, every generated document parses as the entry-by-entry
    reference parses it."""
    assert_same_parse(to_json(value))


for value in ERROR_ORDER_EXAMPLES:
    test_parse_matches_reference = example(value)(test_parse_matches_reference)


def test_no_good_graph_checked_entry_by_entry(monkeypatch):
    """Only a graph that breaks a rule is checked entry by entry: every
    ``_check_edges`` call raises, also when 50 valid graphs precede a bad label."""
    check, calls, returned = graphs._check_edges, [], []

    def spy(i, raw_edges, num_nodes):
        calls.append(i)
        check(i, raw_edges, num_nodes)
        returned.append(i)

    monkeypatch.setattr(graphs, "_check_edges", spy)
    valid = {"label": 1, "edges": [[0, 1, 0.5], [2, 1, 1]]}
    bad_label = {"num_nodes": 3, "graphs": [valid] * 50 + [{"label": 2, "edges": []}]}
    for value in ERROR_ORDER_EXAMPLES + [bad_label]:
        with contextlib.suppress(ug.DatasetFormatError):
            ug.parse_dataset(to_json(value))
    assert calls and not returned


BAD_PROBABILITIES = [0.0, -0.0, -0.25, 1.0000000000000002, 1.5, math.nan, math.inf, -math.inf]


@st.composite
def planted_graphs(draw):
    """A node count and a few graphs' [u, v, p] entries, empty graphs among
    them: distinct edges listed either way round over small labels or the
    largest below the cap, and in one graph of four a planted entry that is
    out of range, a self-loop, of a probability outside (0, 1] or a duplicate."""
    nodes = draw(st.sampled_from([[0, 1, 2, 3], [0, 1, 2**31 - 2, 2**31 - 1]]))
    num_nodes = nodes[-1] + 1
    pairs = [(u, v) for u in nodes for v in nodes if u < v]
    probability = st.floats(0.0, 1.0, exclude_min=True) | st.just(1.0)
    graph_list = []
    for _ in range(draw(st.integers(0, 5))):
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=5))
        entries = [[*draw(st.permutations(e)), draw(probability)] for e in chosen]
        if draw(st.integers(0, 3)) == 0:
            u, v = draw(st.permutations(draw(st.sampled_from(pairs))))
            far = draw(st.sampled_from([-1, num_nodes, num_nodes + 3]))
            planted = [
                [*draw(st.permutations([u, far])), draw(probability)],
                [u, u, draw(probability)],
                [u, v, draw(st.sampled_from(BAD_PROBABILITIES))],
            ] + [[*draw(st.permutations(e[:2])), draw(probability)] for e in entries]
            entries.insert(draw(st.integers(0, len(entries))), draw(st.sampled_from(planted)))
        graph_list.append(entries)
    return num_nodes, graph_list


@settings(max_examples=400, deadline=None)
@given(planted_graphs())
def test_table_dataset_matches_reference(inputs):
    """The builder finds what the entry-by-entry reference finds: given the
    entries of a JSON document as arrays, it raises the reference's message
    for that document, or builds the reference's dataset and edge table."""
    num_nodes, graph_list = inputs
    entries = [e for g in graph_list for e in g]
    us, vs, probs = (
        np.array([e[k] for e in entries], dtype)
        for k, dtype in enumerate((np.intp, np.intp, np.float64))
    )
    labels = [(-1) ** i for i in range(len(graph_list))]
    ids = [f"g{i}" for i in range(len(graph_list))]
    sizes = [len(g) for g in graph_list]
    document = {
        "num_nodes": num_nodes,
        "graphs": [
            {"id": gid, "label": y, "edges": g} for gid, y, g in zip(ids, labels, graph_list)
        ],
    }
    assert_same_parse(
        to_json(document), lambda _: _table_dataset(num_nodes, us, vs, probs, sizes, labels, ids)
    )


class TestParseIntoTable:
    def test_live_memory_of_parsed_adhd(self):
        """A parsed dataset is its edge table: adhd-like seed 0 (97 555 edge
        entries) holds well under the 12 MB its edge dicts took."""
        data = ug.serialize_dataset(ug.make_preset("adhd-like", seed=0))
        tracemalloc.start()
        try:
            ds = ug.parse_dataset(data)
            live = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(ds) == 200
        assert live < 3e6

    def test_memory_of_generated_adhd(self):
        """``gen`` builds adhd-like seed 0 as an edge table and writes it from
        there: its peak stays under the 15.24 MB the dict-based generator and
        serializer took (about 10 MB)."""
        tracemalloc.start()
        try:
            ug.serialize_dataset(ug.make_preset("adhd-like", seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 15.2e6

    def test_traced_peak_of_parse_adhd(self):
        """Parsing adhd-like seed 0 frees the decoded text, the per-graph
        arrays and the whole-entry masks before the edge table is built, and
        copies no endpoints of entries listed low to high: its traced peak
        (6.0 MB) stays well below the 8.97 MB of a parser that checked each
        graph twice and kept the text."""
        data = ug.serialize_dataset(ug.make_preset("adhd-like", seed=0))
        tracemalloc.start()
        try:
            ug.parse_dataset(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7.0e6

    def test_mine_evaluate_featurize_build_no_edge_dict(self, monkeypatch):
        built = []
        real = _EdgeTable.graph_edges

        def spy(table, row):
            built.append(row)
            return real(table, row)

        monkeypatch.setattr(_EdgeTable, "graph_edges", spy)
        ds = ug.parse_dataset(ug.serialize_dataset(ug.make_preset("hiv-like", seed=0)))
        cfg = ug.MiningConfig(
            t=5, min_sup=0.2, measure=ug.MeasureSpec("exp"), score=ug.ScoreFunction("conf")
        )
        features = [f.subgraph for f in ug.mine(ds, cfg).features]
        ug.evaluate(ds, cfg, repeats=2)
        ug.featurize(ds, features)
        ug.featurize(ds.subset([3, 1]), features)
        ug.dataset_stats(ds)
        assert built == []
        assert not any("edges" in g.__dict__ for g in ds.graphs)
        # a read builds the graph's dict once, and keeps it
        assert ds.graphs[2].edges is ds.graphs[2].edges
        assert built == [2]

    @pytest.mark.parametrize("preset", ug.PRESETS)
    def test_serialize_parse_round_trip_bytes(self, preset):
        data = ug.serialize_dataset(ug.make_preset(preset, seed=0))
        assert ug.serialize_dataset(ug.parse_dataset(data)) == data

    def test_preset_tables_equal_reference(self):
        for preset in ug.PRESETS:
            assert_same_parse(ug.serialize_dataset(ug.make_preset(preset, seed=1)).decode())


class TestConstructorsMatchParser:
    """The constructors reject what ``parse_dataset`` rejects, so that
    ``serialize_dataset`` never writes a dataset it cannot read back."""

    def test_bool_label_rejected(self):
        with pytest.raises(ValueError, match="graph 0: label must be"):
            ug.Dataset(2, (ug.UncertainGraph(2, {}),), (True,))

    def test_numpy_label_rejected(self):
        """A numpy integer equals 1 but is no JSON number."""
        for y in (np.int64(1), np.int32(-1)):
            with pytest.raises(ValueError, match="graph 0: label must be"):
                ug.Dataset(2, (ug.UncertainGraph(2, {(0, 1): 0.5}),), (y,))

    def test_bool_probability_rejected(self):
        with pytest.raises(ValueError, match="probability must be a number"):
            ug.UncertainGraph(2, {(0, 1): True})

    def test_bool_endpoints_rejected(self):
        with pytest.raises(ValueError, match="endpoints must be integers"):
            ug.UncertainGraph(2, {(False, True): 0.5})

    def test_descending_key_rejected(self):
        """The parser orders a listed (1, 0); a constructor refuses the key."""
        with pytest.raises(ValueError, match=r"edge \(1, 0\): not ascending"):
            ug.UncertainGraph(2, {(1, 0): 0.5})
        with pytest.raises(ValueError, match=r"edge \(2, 1\): not ascending"):
            ug.CertainGraph(3, frozenset({(0, 1), (2, 1)}))

    def test_num_nodes_past_the_cap_rejected(self):
        """Every constructor takes at most 2^31 nodes, so that labels are
        machine integers; none builds columns for a label past int64."""
        for make in (
            lambda n: ug.UncertainGraph(n, {}),
            lambda n: ug.CertainGraph(n, frozenset()),
            lambda n: ug.Dataset(n, (), ()),
        ):
            assert make(2**31).num_nodes == 2**31
            with pytest.raises(ValueError, match="^num_nodes must be at most 2147483648, got"):
                make(2**31 + 1)
        with pytest.raises(ValueError, match="^num_nodes must be at most"):
            ug.CertainGraph(2**70 + 1, frozenset({(0, 2**70)}))

    @pytest.mark.parametrize("num_nodes", [-1, True, 2.5, "3"])
    def test_certain_graph_num_nodes_rejected(self, num_nodes):
        """``CertainGraph`` takes ``num_nodes`` by the rule ``UncertainGraph`` uses."""
        for make in (ug.CertainGraph, ug.UncertainGraph):
            with pytest.raises(ValueError, match="^num_nodes must be a nonnegative integer, got"):
                make(num_nodes, ())
        assert type(ug.CertainGraph(np.int64(3), frozenset()).num_nodes) is int

    def test_bool_num_nodes_and_id_rejected(self):
        with pytest.raises(ValueError, match="num_nodes"):
            ug.UncertainGraph(True, {})
        with pytest.raises(ValueError, match="num_nodes"):
            ug.Dataset(True, (), ())
        with pytest.raises(ValueError, match="id must be a string"):
            ug.Dataset(2, (ug.UncertainGraph(2, {}),), (1,), (0,))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_constructed_datasets_round_trip(data):
    """A dataset the constructors accept serializes to text that parses back
    to an equal dataset."""
    # a float or negative count is refused, a numpy integer kept as an int
    num_nodes = data.draw(st.sampled_from([0, 2, 4, True, 4.0, -1, np.int64(4)]))
    endpoint = st.integers(0, 3) | st.booleans() | st.just(1.0)
    probability = st.floats(0.001, 1.0) | st.sampled_from([1, 0.5, True, False, "0.5"])
    label = st.sampled_from([1, -1, 1.0, -1.0, True, False, 2, np.int64(1), np.int32(-1)])
    gid = st.text(max_size=2) | st.integers(0, 2)
    n = data.draw(st.integers(0, 3))
    try:
        graphs = tuple(
            ug.UncertainGraph(
                num_nodes,
                data.draw(st.dictionaries(st.tuples(endpoint, endpoint), probability, max_size=3)),
            )
            for _ in range(n)
        )
        labels = tuple(data.draw(label) for _ in range(n))
        ds = ug.Dataset(num_nodes, graphs, labels, tuple(data.draw(gid) for _ in range(n)))
    except ValueError:
        return
    assert ug.parse_dataset(ug.serialize_dataset(ds)) == ds


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
            matrix = union_rows(d, np.arange(len(edges)))
            assert matrix.shape == probs.shape
            assert matrix.tobytes() == probs.tobytes()
            # ascending, unordered and empty selections of edge columns
            picks = [sorted(rng.sample(every, len(edges) // 3)), []]
            picks.append(rng.sample(every, min(len(edges), 5)))
            for pick in picks:
                rows = union_rows(d, pick)
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
        assert union_rows(ds, np.arange(0)).shape == (0, 0)

    def test_graph_without_edges(self, fig2):
        empty = ug.UncertainGraph(3, {})
        ds = ug.Dataset(3, (empty,) + fig2.graphs + (empty,), (1, 1, 1, -1, -1, -1))
        self.assert_tables_equal(ds)
        for indices in ([0], [0, 5], [5, 2, 0], [1, 5]):
            self.assert_tables_equal(ds.subset(indices))
        assert union_rows(ds.subset([0]), np.arange(0)).shape == (0, 1)

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


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_edge_reads_match_edge_dicts(data):
    """The count pass, the rows read and the listed probabilities equal a
    reference built from the graphs' edge dicts: on datasets built from
    dicts and parsed, with graphs that have no edges and the largest
    endpoints, and on subsets given as repeated, unordered and empty index
    lists. The column past the last table edge reads as an edge no graph holds."""
    nodes = [0, 1, 2, 3] + data.draw(st.sampled_from([[], [2**31 - 2, 2**31 - 1]]))
    num_nodes = nodes[-1] + 1
    edge = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)).filter(lambda e: e[0] < e[1])
    dicts = data.draw(st.lists(st.dictionaries(edge, st.floats(0.01, 1.0), max_size=5), max_size=5))
    built = tuple(ug.UncertainGraph(num_nodes, g) for g in dicts)
    made = ug.Dataset(num_nodes, built, (1,) * len(built))
    picks = st.lists(st.integers(0, len(built) - 1), max_size=7) if built else st.just([])
    indices = data.draw(picks)
    for ds in (made, ug.parse_dataset(ug.serialize_dataset(made))):
        for d in (ds, ds.subset(indices)):
            table = d._edge_table[0]
            held = [sum(e in g.edges for g in d.graphs) for e in table.edges]
            assert _edge_counts(d).tolist() == held
            cols = data.draw(st.lists(st.integers(0, len(table.edges)), max_size=6))
            edges = [table.edges[j] if j < len(table.edges) else None for j in cols]
            want = np.zeros((len(cols), len(d)))
            for k, e in enumerate(edges):
                for i, g in enumerate(d.graphs):
                    want[k, i] = g.edges.get(e, 0.0)
            got = _edge_rows(d, np.array(cols, dtype=np.intp))
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            listed = [p for g in d.graphs for p in g.edges.values()]
            assert _listed_probabilities(d).tolist() == listed


class TestOneCountPassPerSearch:
    def test_one_count_pass_per_mine(self, monkeypatch):
        """A search counts the edges of its graphs once; ``featurize`` counts none."""
        calls = []

        def spy(dataset):
            calls.append(len(dataset))
            return _edge_counts(dataset)

        monkeypatch.setattr(graphs, "_edge_counts", spy)
        monkeypatch.setattr(miner, "_edge_counts", spy)
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

    def test_largest_node_labels(self):
        big = 2**31 - 3
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


class TestTableDataset:
    """``_table_dataset`` checks its entries as ``UncertainGraph`` checks an edge dict."""

    def build(self, lo, hi, probs, sizes):
        n = len(sizes)
        arrays = np.array(lo, dtype=np.intp), np.array(hi, dtype=np.intp), np.array(probs, float)
        return _table_dataset(4, *arrays, sizes, [1] * n, [f"g{i}" for i in range(n)])

    def test_valid_entries(self):
        ds = self.build([2, 0, 1], [3, 1, 3], [0.5, 1.0, 0.25], [0, 2, 1])
        want = [{}, {(2, 3): 0.5, (0, 1): 1.0}, {(1, 3): 0.25}]
        assert [list(g.edges.items()) for g in ds.graphs] == [list(w.items()) for w in want]
        assert ds == ug.Dataset(4, tuple(ug.UncertainGraph(4, w) for w in want), (1, 1, 1))

    @pytest.mark.parametrize(
        "lo, hi, probs, match",
        [
            ([0, -1], [1, 2], [0.5, 0.5], r"graph 2, edge 0: endpoints \(-1, 2\) outside"),
            ([0, 2], [1, 2], [0.5, 0.5], r"graph 2, edge 0: self-loop \(2, 2\)"),
            ([0, 1], [1, 4], [0.5, 0.5], r"graph 2, edge 0: endpoints \(1, 4\) outside"),
            ([0, 1], [1, 2], [0.5, 0.0], r"graph 2, edge 0: probability 0.0 out of range"),
            ([0, 1], [1, 2], [1.5, 0.5], r"graph 1, edge 0: probability 1.5 out of range"),
            ([0, 1], [1, 2], [0.5, math.nan], r"graph 2, edge 0: probability nan out of range"),
            ([1, 0, 0], [2, 1, 1], [0.5, 0.5, 0.5], r"graph 2, edge 1: duplicate edge \(0, 1\)"),
        ],
        ids=["negative", "self-loop", "past-n", "p-zero", "p-above-one", "p-nan", "duplicate"],
    )
    def test_bad_entries(self, lo, hi, probs, match):
        """Graph 0 is empty, graph 1 holds the first entry and graph 2 the rest."""
        with pytest.raises(ValueError, match=match):
            self.build(lo, hi, probs, [0, 1, len(lo) - 1])

    def test_same_edge_in_two_graphs(self):
        ds = self.build([0, 0], [1, 1], [0.5, 0.25], [1, 1])
        assert [g.edges for g in ds.graphs] == [{(0, 1): 0.5}, {(0, 1): 0.25}]

    def test_endpoints_listed_high_to_low(self):
        """Entries listed (hi, lo) build the dataset of their canonical listing."""
        ds = self.build([3, 1, 3], [2, 0, 1], [0.5, 1.0, 0.25], [0, 2, 1])
        want = self.build([2, 0, 1], [3, 1, 3], [0.5, 1.0, 0.25], [0, 2, 1])
        assert [list(g.edges.items()) for g in ds.graphs] == [
            list(g.edges.items()) for g in want.graphs
        ]
        assert ds == want
        (table, _), (want_table, _) = ds._edge_table, want._edge_table
        assert table.edges == want_table.edges
        for name in ("cols", "probs", "offsets", "ends"):
            assert np.array_equal(getattr(table, name), getattr(want_table, name))

    @pytest.mark.parametrize(
        "lo, hi, probs, sizes, match",
        [
            ([0, 1, 0], [1, 0, 9], [0.5] * 3, [2, 1], r"graph 0, edge 1: duplicate edge \(0, 1\)"),
            (
                [0, 1, 0], [1, 0, 1], [0.5, 0.5, 0.0], [2, 1],
                r"graph 0, edge 1: duplicate edge \(0, 1\)",
            ),
            (
                [0, 1, 0], [1, 2, 9], [0.5, 1.5, 0.5], [2, 1],
                r"graph 0, edge 1: probability 1.5 out of range",
            ),
            ([0, 0, 9], [1, 2, 0], [0.5] * 3, [2, 1], r"graph 1, edge 0: endpoints \(9, 0\)"),
            ([0, 0, 1], [9, 1, 0], [0.5] * 3, [1, 2], r"graph 0, edge 0: endpoints \(0, 9\)"),
        ],
        ids=[
            "duplicate-then-range", "duplicate-then-p", "p-then-range", "range",
            "range-then-duplicate",
        ],
    )
    def test_lowest_bad_graph_reported(self, lo, hi, probs, sizes, match):
        """Whatever the rules broken, the lower of two bad graphs is named."""
        with pytest.raises(ValueError, match=match):
            self.build(lo, hi, probs, sizes)


def test_integer_probability_written_as_float():
    """A hand-built graph's ``int`` probability is written as a float, which
    parses to an equal dataset; the dict-based writer wrote the ``int``."""
    ds = ug.Dataset(3, (ug.UncertainGraph(3, {(1, 2): 1, (0, 1): 0.5}),), (1,))
    data = ug.serialize_dataset(ds)
    assert b'"edges": [[0, 1, 0.5], [1, 2, 1.0]]' in data
    assert reference_serialize(ds) == data.replace(b"1.0]", b"1]")
    assert ug.parse_dataset(data) == ds


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_serialize_matches_reference(data):
    """The table writer gives the bytes of the dict-based writer: on built
    datasets whose graphs list their edges in any order, with float labels,
    any ids, empty graphs and no graphs, the largest endpoints; on their
    subsets given as repeated and reordered indices; and on parsed datasets."""
    nodes = [0, 1, 2, 3] + data.draw(st.sampled_from([[], [2**31 - 2, 2**31 - 1]]))
    num_nodes = nodes[-1] + 1
    edge = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)).filter(lambda e: e[0] < e[1])
    probability = st.floats(0.0, 1.0, exclude_min=True) | st.sampled_from([1.0, 0.1, 5e-324])
    dicts = data.draw(st.lists(st.dictionaries(edge, probability, max_size=6), max_size=5))
    labels = [data.draw(st.sampled_from([1, -1, 1.0, -1.0])) for _ in dicts]
    gid = st.text(alphabet=st.sampled_from('a"\\\x00\x1f\n\u00e9\u2603\U0001f600\ud800'), max_size=4)
    ids = [data.draw(gid) for _ in dicts]
    graphs = tuple(ug.UncertainGraph(num_nodes, d) for d in dicts)
    made = ug.Dataset(num_nodes, graphs, tuple(labels), tuple(ids))
    indices = data.draw(st.lists(st.integers(0, len(dicts) - 1), max_size=7) if dicts else st.just([]))
    parsed = ug.parse_dataset(reference_serialize(made))
    for ds in (made, parsed):
        for d in (ds, ds.subset(indices)):
            assert ug.serialize_dataset(d) == reference_serialize(d)


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

    @pytest.mark.parametrize(
        "edges", [((0, True),), ((False, 1),), ((0, 1.0),), ((0, 1), (1, np.int64(2)))]
    )
    def test_endpoints_not_int_rejected(self, edges):
        """The exact-``int`` rule of the graph constructors."""
        with pytest.raises(ValueError, match="endpoints must be integers"):
            ug.Subgraph(edges)
        with pytest.raises(ValueError, match="endpoints must be integers"):
            ug.Subgraph.from_edges(edges)

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

    def test_table_with_largest_node_labels(self):
        big = 2**31 - 3
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


class TestReverseSearchTree:
    """``children`` and ``canonical_parent`` are one rule seen from both sides:
    every child of P has canonical parent P and extends P's chain by its added
    edge, and every connected edge set is the child of exactly its parent."""

    @staticmethod
    def universes():
        """Random universes of 4-6 nodes, each with a cycle through 3+ nodes."""
        rng = random.Random(97)
        for _ in range(20):
            n = rng.randint(4, 6)
            ring = rng.sample(range(n), rng.randint(3, n))
            edges = {ug.make_edge(a, b) for a, b in zip(ring, ring[1:] + ring[:1])}
            edges |= {e for e in all_pairs(n) if rng.random() < 0.5}
            yield ug.CertainGraph(n, frozenset(edges))

    @staticmethod
    def brute_threshold(columns, parent: tuple, e: tuple) -> int:
        """Largest column of a parent edge whose removal from parent + e keeps it connected."""
        whole = set(parent) | {e}
        removable = [f for f in parent if _subset_connected(tuple(whole - {f}))]
        return max((columns.column[f] for f in removable), default=-1)

    def test_children_and_parents_agree(self):
        checked_chords = 0
        for universe in self.universes():
            columns = universe.columns
            edges = sorted(universe.edges)
            connected = [
                combo
                for r in range(1, 6)
                for combo in itertools.combinations(edges, r)
                if _subset_connected(combo)
            ]
            assert any(len(c) >= len({n for e in c for n in e}) for c in connected)  # a cycle
            seen = []
            for parent_edges in (c for c in connected if len(c) <= 4):
                parent = ug.Subgraph(parent_edges)
                for child in ug.children(parent, universe):
                    (e,) = set(child.edges) - set(parent_edges)
                    assert ug.canonical_parent(child) == parent
                    assert child._chain == parent._chain + (e,)
                    seen.append(child.edges)
                for e in universe.extensions(parent_edges):
                    expected = self.brute_threshold(columns, parent_edges, e)
                    assert graphs._threshold(columns, parent_edges, e) == expected
                    checked_chords += e[0] in parent.nodes and e[1] in parent.nodes
                for a in parent.nodes:  # a pendant edge to a new node, as ``children`` asks
                    expected = self.brute_threshold(columns, parent_edges, (a, -1))
                    assert graphs._threshold(columns, parent_edges, (a, -1)) == expected
            assert sorted(seen) == sorted(c for c in connected if len(c) >= 2)
        assert checked_chords > 100
