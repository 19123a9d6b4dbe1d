import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ugmine as ug
from ugmine.cli import _measure_and_score, build_parser, main
from conftest import DATA_DIR, mostly, to_json


@pytest.fixture
def fig2_file(tmp_path):
    path = tmp_path / "fig2.json"
    path.write_bytes((DATA_DIR / "fig2.json").read_bytes())
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMineCommand:
    def test_fig2_top_feature(self, capsys, fig2_file):
        code, out, _ = run(
            capsys,
            "mine", "--input", fig2_file,
            "--measure", "exp", "--score", "conf",
            "--top", "1", "--min-sup", "0.2",
        )
        assert code == 0
        payload = json.loads(out[out.index("{"):])
        assert payload["features"][0]["edges"] == [[0, 1], [1, 2]]
        assert payload["measure"] == "exp"
        assert payload["score"] == "conf"

    def test_default_measure_and_phi(self, capsys, fig2_file):
        code, out, _ = run(capsys, "mine", "--input", fig2_file, "--top", "2")
        assert code == 0
        payload = json.loads(out[out.index("{"):])
        assert payload["measure"] == "phi-pr"
        assert payload["score"] == "ratio"
        assert payload["phi"] == 1.0

    def test_phi_default_per_score(self, capsys, fig2_file):
        code, out, _ = run(
            capsys, "mine", "--input", fig2_file, "--score", "hsic", "--measure", "phi-pr"
        )
        assert code == 0
        payload = json.loads(out[out.index("{"):])
        assert payload["phi"] == 0.03

    def test_exp_ratio_caps_by_default(self, capsys, fig2_file):
        code, out, _ = run(
            capsys, "mine", "--input", fig2_file, "--measure", "exp", "--score", "ratio"
        )
        assert code == 0
        payload = json.loads(out[out.index("{"):])
        assert payload["cap_epsilon"] == 0.01

    def test_out_file(self, capsys, fig2_file, tmp_path):
        out_path = tmp_path / "features.json"
        code, out, _ = run(
            capsys,
            "mine", "--input", fig2_file, "--top", "1", "--out", str(out_path),
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert len(payload["features"]) == 1
        assert "{" not in out.split("rank")[0]

    def test_no_prune_same_features(self, capsys, fig2_file):
        base = ["mine", "--input", fig2_file, "--measure", "exp", "--score", "conf",
                "--top", "3", "--min-sup", "0.2"]
        code1, out1, _ = run(capsys, *base)
        code2, out2, _ = run(capsys, *base, "--no-prune")
        assert code1 == code2 == 0
        f1 = json.loads(out1[out1.index("{"):])["features"]
        f2 = json.loads(out2[out2.index("{"):])["features"]
        assert f1 == f2

    def test_threads_flag_removed(self, capsys, fig2_file):
        code, out, err = run(capsys, "mine", "--input", fig2_file, "--threads", "2")
        assert code == 2
        assert out == ""
        assert "--threads" in err

    def test_seed_flag_removed(self, capsys, fig2_file):
        code, _, _ = run(capsys, "mine", "--input", fig2_file, "--seed", "1")
        assert code == 2

    def test_deterministic_output(self, capsys, fig2_file):
        base = ["mine", "--input", fig2_file, "--top", "3"]
        _, out1, _ = run(capsys, *base)
        _, out2, _ = run(capsys, *base)
        assert out1 == out2


class TestUsageErrors:
    def test_unknown_flag(self, capsys, fig2_file):
        code, _, _ = run(capsys, "mine", "--input", fig2_file, "--bogus")
        assert code == 2

    def test_missing_input_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "mine", "--input", str(tmp_path / "nope.json"))
        assert code == 2
        assert "not found" in err

    def test_phi_with_wrong_measure(self, capsys, fig2_file):
        code, _, err = run(
            capsys, "mine", "--input", fig2_file, "--measure", "exp", "--phi", "1.0"
        )
        assert code == 2
        assert "phi" in err

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "transmogrify")
        assert code == 2

    @pytest.mark.parametrize("command", ["mine", "evaluate"])
    @pytest.mark.parametrize(
        "flag, value", [("--top", "0"), ("--min-sup", "2"), ("--max-edges", "0")]
    )
    def test_out_of_range_flag(self, capsys, fig2_file, tmp_path, command, flag, value):
        """Flags are checked before --input is read: with a malformed input
        too, the run is still a usage error about the flag."""
        bad = tmp_path / "bad.json"
        bad.write_text('{"num_nodes": 3, "graphs": {}}')
        for path in (fig2_file, str(bad)):
            code, out, err = run(capsys, command, "--input", path, flag, value)
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and flag in err

    def test_featurize_missing_features_before_malformed_input(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"num_nodes": 3, "graphs": {}}')
        missing = tmp_path / "nope.json"
        code, out, err = run(
            capsys, "featurize", "--input", str(bad), "--features", str(missing)
        )
        assert code == 2
        assert out == ""
        assert err == f"error: features file not found: {missing}\n"

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("mine", "--cap-epsilon", "-1"),
            ("evaluate", "--train-fraction", "1.5"),
            ("evaluate", "--train-fraction", "0"),
            ("evaluate", "--repeats", "0"),
            ("oracle-check", "--trials", "-1"),
            ("oracle-check", "--cap-epsilon", "-1"),
        ],
    )
    def test_out_of_range_flag_other_commands(self, capsys, fig2_file, command, flag, value):
        code, out, err = run(capsys, command, "--input", fig2_file, flag, value)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and flag in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("mine", ("--phi", "nan")),
            ("evaluate", ("--phi", "nan")),
            ("mine", ("--measure", "exp", "--cap-epsilon", "inf")),
            ("mine", ("--cap-epsilon", "inf")),
            ("mine", ("--cap-epsilon", "nan")),
            ("oracle-check", ("--cap-epsilon", "inf")),
            ("oracle-check", ("--max-worlds", "0")),
            ("oracle-check", ("--max-worlds", "-1")),
        ],
    )
    def test_unusable_measure_or_budget_flag(self, capsys, fig2_file, command, flags):
        code, out, err = run(capsys, command, "--input", fig2_file, *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and flags[-2] in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("preset", ug.PRESETS)
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--planted-prob-pos", "2"),
            ("--planted-prob-pos", "0"),
            ("--planted-prob-neg", "-0.5"),
            ("--planted-prob-neg", "nan"),
        ],
    )
    def test_planted_prob_out_of_range(self, capsys, preset, flag, value):
        code, out, err = run(capsys, "gen", "--preset", preset, flag, value)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and flag in err
        assert err.count("\n") == 1

    def test_evaluate_no_prune_removed(self, capsys, fig2_file):
        code, out, err = run(capsys, "evaluate", "--input", fig2_file, "--no-prune")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--no-prune" in err
        assert err.count("\n") == 1

    def test_boolean_label_in_dataset(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"num_nodes": 3, "graphs": [{"label": true, "edges": [[0, 1, 0.5]]}]}')
        code, out, err = run(capsys, "stats", "--input", str(bad))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_malformed_dataset(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, _, err = run(capsys, "stats", "--input", str(bad))
        assert code == 1
        assert "error" in err


class TestMalformedInput:
    """Inputs that once ended in a traceback: exit 1 with one line on stderr."""

    @staticmethod
    def assert_one_line_error(code, out, err):
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_num_nodes_past_the_cap(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"num_nodes": {2**31 + 1}, "graphs": []}}')
        code, out, err = run(capsys, "stats", "--input", str(bad))
        self.assert_one_line_error(code, out, err)
        assert "num_nodes must be a nonnegative integer, at most 2147483648" in err

    def test_probability_integer_beyond_float_range(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        huge = "1" + "0" * 400
        bad.write_text(f'{{"num_nodes": 3, "graphs": [{{"label": 1, "edges": [[0, 1, {huge}]]}}]}}')
        code, out, err = run(capsys, "stats", "--input", str(bad))
        self.assert_one_line_error(code, out, err)
        assert "graph 0, edge 0: probability inf out of range (0, 1]" in err

    @pytest.mark.parametrize("which", ["dataset", "features"])
    def test_json_nested_too_deep(self, capsys, fig2_file, tmp_path, which):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200000 + "]" * 200000)
        if which == "dataset":
            argv = ["stats", "--input", str(deep)]
        else:
            argv = ["featurize", "--input", fig2_file, "--features", str(deep)]
        code, out, err = run(capsys, *argv)
        self.assert_one_line_error(code, out, err)
        assert "malformed JSON" in err

    def test_evaluate_repeats_beyond_memory(self, capsys, fig2_file, monkeypatch):
        """The repeat count sizes nothing up front: the second split's failure
        is what ends the run. (A real run of this many repeats never ends.)"""
        calls = []
        real_mine = ug.miner.mine

        def second_call_fails(dataset, cfg):
            calls.append(dataset)
            if len(calls) == 2:
                raise ValueError("second split failed")
            return real_mine(dataset, cfg)

        monkeypatch.setattr(ug.miner, "mine", second_call_fails)
        code, out, err = run(
            capsys, "evaluate", "--input", fig2_file, "--repeats", str(10**23), "--min-sup", "0"
        )
        self.assert_one_line_error(code, out, err)
        assert err == "error: second split failed\n"


class TestOracleCheck:
    def test_fig2_all_match(self, capsys, fig2_file):
        code, out, _ = run(
            capsys, "oracle-check", "--input", fig2_file, "--trials", "20", "--seed", "3"
        )
        assert code == 0
        assert "20/20 matched" in out

    def test_negative_seed_accepted(self, capsys, fig2_file):
        code, out, _ = run(capsys, "oracle-check", "--input", fig2_file, "--seed", "-1")
        assert code == 0
        assert out == "100/100 matched\n"

    def test_walks_each_trials_worlds_once(self, capsys, fig2_file, monkeypatch):
        """Each trial lists every graph's worlds once: the measure is read
        off the trial's joint, not walked again."""
        calls = []
        real = ug.oracle._graph_worlds

        def spy(graph):
            calls.append(graph.edges)
            return real(graph)

        monkeypatch.setattr(ug.oracle, "_graph_worlds", spy)
        code, out, _ = run(capsys, "oracle-check", "--input", fig2_file, "--trials", "5")
        assert (code, out) == (0, "5/5 matched\n")
        assert calls == [g.edges for g in ug.fig2_dataset().graphs] * 5

    def test_budget_exceeded(self, capsys, fig2_file):
        code, _, err = run(
            capsys,
            "oracle-check", "--input", fig2_file, "--trials", "1", "--max-worlds", "10",
        )
        assert code == 1
        assert "possible worlds" in err

    def test_exp_default_cap_shared_with_mine(self):
        for command in ("mine", "evaluate", "oracle-check"):
            argv = [command, "--input", "x.json", "--measure", "exp", "--score", "gtest"]
            measure, score = _measure_and_score(build_parser().parse_args(argv))
            assert measure == ug.MeasureSpec("exp")
            assert score == ug.ScoreFunction("gtest", 0.01)

    def test_budget_exceeded_huge_count(self, capsys, tmp_path):
        # 2 x 7260 edges: 2^14520 worlds, past the digit limit of int-to-str
        full = {(u, v): 0.5 for u in range(121) for v in range(u + 1, 121)}
        graphs = (ug.UncertainGraph(121, full), ug.UncertainGraph(121, full))
        ds = ug.Dataset(121, graphs, (1, -1))
        with pytest.raises(ug.WorldCountError, match=r"2\^14520 possible worlds, exceeding"):
            ug.oracle_joint(ug.Subgraph.from_edges([(0, 1)]), ds)
        path = tmp_path / "huge.json"
        path.write_bytes(ug.serialize_dataset(ds))
        code, _, err = run(capsys, "oracle-check", "--input", str(path), "--trials", "1")
        assert code == 1
        assert "possible worlds" in err


class TestGen:
    def test_fig2_matches_fixture(self, capsys):
        code, out, _ = run(capsys, "gen", "--preset", "fig2")
        assert code == 0
        assert out.encode() == (DATA_DIR / "fig2.json").read_bytes()

    def test_gen_to_file_parses(self, capsys, tmp_path):
        out_path = tmp_path / "synth.json"
        code, _, _ = run(
            capsys,
            "gen", "--preset", "hiv-like", "--seed", "5", "--out", str(out_path),
        )
        assert code == 0
        ds = ug.parse_dataset(out_path.read_bytes())
        assert len(ds) == 50

    @pytest.mark.parametrize("preset", ug.PRESETS)
    def test_negative_seed_rejected(self, capsys, preset):
        code, out, err = run(capsys, "gen", "--preset", preset, "--seed", "-1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--seed" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ["--planted-prob-pos", "0.3"],
            ["--planted-prob-neg", "0.7"],
            ["--planted-prob-pos", "0.3", "--planted-prob-neg", "0.7"],
        ],
    )
    def test_fig2_rejects_planted_probs(self, capsys, flags):
        code, out, err = run(capsys, "gen", "--preset", "fig2", *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and flags[0] in err and "fig2" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("preset", ["adhd-like", "adni-like", "hiv-like"])
    def test_planted_prob_defaults(self, capsys, preset):
        _, plain, _ = run(capsys, "gen", "--preset", preset, "--seed", "2")
        flags = ["--planted-prob-pos", "0.9", "--planted-prob-neg", "0.1"]
        _, explicit, _ = run(capsys, "gen", "--preset", preset, "--seed", "2", *flags)
        _, other, _ = run(capsys, "gen", "--preset", preset, "--seed", "2", flags[0], "0.3")
        assert plain == explicit != other

    def test_gen_deterministic(self, capsys):
        _, out1, _ = run(capsys, "gen", "--preset", "hiv-like", "--seed", "9")
        _, out2, _ = run(capsys, "gen", "--preset", "hiv-like", "--seed", "9")
        assert out1 == out2


class TestFeaturizeCommand:
    def test_csv_output(self, capsys, fig2_file, tmp_path):
        features = tmp_path / "features.json"
        run(
            capsys,
            "mine", "--input", fig2_file, "--measure", "exp", "--score", "conf",
            "--top", "1", "--min-sup", "0.2", "--out", str(features),
        )
        code, out, _ = run(
            capsys, "featurize", "--input", fig2_file, "--features", str(features)
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "g_0,label"
        assert lines[1] == "0.7200000000000001,1"
        assert len(lines) == 5


    @pytest.mark.parametrize(
        "content",
        [
            b'{"features": [{"rank": 1}]}',
            b'{"features": {"edges": [[0, 1]]}}',
            b'{"features": [{"edges": [[0, 1]]}]}\xff',
            b'{"features": [{"edges": [[0, ' + b"5" * 5000 + b"]]}]}",
            b'[{"edges": [[0, 3]]}]',
        ],
        ids=[
            "entry-without-edges", "features-not-a-list", "not-utf8", "huge-integer",
            "node-outside-universe",
        ],
    )
    def test_malformed_features_file(self, capsys, fig2_file, tmp_path, content):
        features = tmp_path / "features.json"
        features.write_bytes(content)
        code, out, err = run(
            capsys, "featurize", "--input", fig2_file, "--features", str(features)
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(features) in err

    @pytest.mark.parametrize(
        "pair", ["[0.5, 1]", "[true, 2]", "[0, 1, 2]"], ids=["float", "boolean", "triple"]
    )
    def test_non_integer_pair_rejected(self, capsys, fig2_file, tmp_path, pair):
        features = tmp_path / "features.json"
        features.write_text(f'{{"features": [{{"edges": [[0, 1]]}}, {{"edges": [{pair}]}}]}}')
        code, out, err = run(
            capsys, "featurize", "--input", fig2_file, "--features", str(features)
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "feature 1:" in err and "integer pairs" in err


# feature files shaped like the list ``mine --out`` writes, each part of
# which may be any JSON value
EDGE_PAIRS = mostly(
    st.sampled_from([[0, 1], [1, 2], [0, 2], [2, 1]])
    | st.tuples(mostly(st.integers(0, 3)), mostly(st.integers(0, 3))).map(list)
)
FEATURE_ENTRIES = mostly(st.fixed_dictionaries({"edges": mostly(st.lists(EDGE_PAIRS, max_size=3))}))
FEATURE_FILES = mostly(
    st.fixed_dictionaries({"features": mostly(st.lists(FEATURE_ENTRIES, max_size=3))})
)


@pytest.fixture(scope="module")
def featurize_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("featurize")
    (path / "fig2.json").write_bytes((DATA_DIR / "fig2.json").read_bytes())
    return path


@settings(max_examples=200, deadline=None)
@given(FEATURE_FILES)
def test_featurize_generated_feature_files(featurize_dir, value):
    """Any feature file gives exit 0, or 1 with one line on stderr; a file
    that holds no features is the one usage error, exit 2."""
    features = featurize_dir / "features.json"
    features.write_text(to_json(value))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(
            ["featurize", "--input", str(featurize_dir / "fig2.json"), "--features", str(features)]
        )
    if code == 0:
        assert out.getvalue().startswith("g_") and err.getvalue() == ""
        return
    assert code in (1, 2)
    assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
    if code == 2:
        assert "holds no features" in err.getvalue()


# mine and evaluate flag values: small and huge integers, floats given as
# text, and junk; three draws in four take a value in the flag's range
FLAG_VALUES = (
    st.integers(-3, 8).map(str)
    | st.sampled_from([str(10**30), str(-(10**30))])
    | st.floats().map(repr)
    | st.sampled_from(["nan", "inf", "-inf", "5e-324", "1e400", "-1e400", "-0.0"])
    | st.text(max_size=4)
)
USABLE = {
    "--top": ["1", "3", str(10**30)],
    "--min-sup": ["0", "5e-324", "0.2", "0.5", "1"],
    "--max-edges": ["1", "2", str(10**30)],
    "--phi": ["-inf", "0", "0.5", "1", "1e400"],
    "--cap-epsilon": ["0", "5e-324", "0.01", "1e400"],
    "--train-fraction": ["5e-324", "0.5", "0.75", "0.9999999999999999"],
    "--seed": ["0", "7", str(10**30)],
}
MINE_FLAGS = ("--top", "--min-sup", "--max-edges", "--phi", "--cap-epsilon")
EVALUATE_FLAGS = MINE_FLAGS + ("--train-fraction", "--seed")


def drawn(draw, usable, junk=FLAG_VALUES):
    """A usable value three draws in four, else one of ``junk``."""
    return draw(st.integers(0, 3).flatmap(lambda k: junk if k == 0 else st.sampled_from(usable)))


@st.composite
def flag_lines(draw):
    """A mine or evaluate command line with some of its flags drawn; each is
    given as --flag=value, so that a value such as -inf is not read as an
    option. evaluate always gets a small --repeats, so no example runs long."""
    command = draw(st.sampled_from(["mine", "evaluate"]))
    names = MINE_FLAGS if command == "mine" else EVALUATE_FLAGS
    argv = [command]
    for name in draw(st.lists(st.sampled_from(names), unique=True)):
        argv.append(f"{name}={drawn(draw, USABLE[name])}")
    if command == "evaluate":
        argv.append("--repeats=" + draw(st.sampled_from(["-1", "0", "1", "2", "x"])))
    return argv


def run_generated(argv) -> tuple[int, str]:
    """Run ``main(argv)``: it must exit 0 with nothing on stderr, or 1 or 2
    with one line on stderr, starting ``error:``, and never warn. Returns
    the exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
    assert [str(w.message) for w in caught] == []
    assert code in (0, 1, 2)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
    return code, out.getvalue()


@settings(max_examples=300, deadline=None)
@given(flag_lines())
def test_mine_and_evaluate_generated_flags(argv):
    """Any flag values give exit 0, 1 or 2, and a nonzero exit prints one
    line on stderr, starting ``error:``; no run warns."""
    code, out = run_generated([*argv, "--input", str(DATA_DIR / "fig2.json")])
    if code == 0:
        assert out


# oracle-check, gen and stats: the inputs their flags may name, and junk for
# their counts that is never a valid integer above 8, so that no example
# runs long
COUNT_JUNK = (
    st.integers(-3, 8).map(str)
    | st.floats().map(repr)
    | st.sampled_from(["nan", "inf", "-1e400", "-0", "0x10", "1_"])
    | st.text(st.characters(blacklist_categories=("Nd",)), max_size=4)
)
INPUTS = ["fig2.json", "one-class.json", "no-edges.json", "no-graphs.json", "bad.json",
          "missing.json", "."]


@pytest.fixture(scope="module")
def inputs_dir(tmp_path_factory):
    """A directory holding the files of ``INPUTS``, but for missing.json."""
    path = tmp_path_factory.mktemp("inputs")
    (path / "fig2.json").write_bytes((DATA_DIR / "fig2.json").read_bytes())
    graph = ug.UncertainGraph(3, {(0, 1): 0.5})
    (path / "one-class.json").write_bytes(ug.serialize_dataset(ug.Dataset(3, (graph,), (1,))))
    empty = (ug.UncertainGraph(3, {}), ug.UncertainGraph(3, {}))
    (path / "no-edges.json").write_bytes(ug.serialize_dataset(ug.Dataset(3, empty, (1, -1))))
    (path / "no-graphs.json").write_text('{"num_nodes": 3, "graphs": []}')
    (path / "bad.json").write_text('{"num_nodes": 3, "graphs": [')
    return path


@st.composite
def oracle_lines(draw):
    """An oracle-check command line, flags as --flag=value."""
    usable = {
        "--trials": (["1", "2", "3"], COUNT_JUNK),
        "--max-worlds": (["1", "10", "1024", "1025"], COUNT_JUNK),
        "--seed": (["0", "-1", "7", str(10**30)], FLAG_VALUES),
        "--measure": (list(ug.MEASURE_KINDS), FLAG_VALUES),
        "--score": (list(ug.SCORE_KINDS), FLAG_VALUES),
        "--phi": (USABLE["--phi"], FLAG_VALUES),
        "--cap-epsilon": (USABLE["--cap-epsilon"], FLAG_VALUES),
    }
    argv = ["oracle-check", "--input=" + drawn(draw, INPUTS[:1] * 4 + INPUTS[1:], st.text())]
    names = draw(st.lists(st.sampled_from(sorted(usable)), unique=True))
    for name in names:
        values, junk = usable[name]
        argv.append(f"{name}={drawn(draw, values, junk)}")
    if "--trials" not in names:
        argv.append("--trials=" + draw(st.sampled_from(["1", "2"])))  # the default is 100
    return argv


@settings(max_examples=150, deadline=None)
@given(oracle_lines())
def test_oracle_check_generated_flags(inputs_dir, argv):
    """oracle-check agrees with the oracle on every drawn flag set that it
    runs; any flags give exit 0, 1 or 2, with one error line when not 0."""
    with contextlib.chdir(inputs_dir):
        code, out = run_generated(argv)
    if code == 0:
        assert out.endswith(" matched\n") or out.endswith(" matched (empty union graph)\n")


@st.composite
def gen_lines(draw):
    """A gen command line, flags as --flag=value; the presets are the two
    quick ones, and --out names a new file, a directory or a missing one."""
    usable = {
        "--seed": ["0", "7", str(10**30)],
        "--planted-prob-pos": ["5e-324", "0.3", "1"],
        "--planted-prob-neg": ["5e-324", "0.7", "1"],
        "--out": ["gen.json", ".", "missing/gen.json"],
    }
    argv = ["gen"]
    if draw(st.integers(0, 15)):  # the flag is required
        argv.append("--preset=" + drawn(draw, ["fig2", "fig2", "hiv-like"]))
    for name in draw(st.lists(st.sampled_from(sorted(usable)), unique=True)):
        argv.append(f"{name}={drawn(draw, usable[name])}")
    return argv


@settings(max_examples=100, deadline=None)
@given(gen_lines())
def test_gen_generated_flags(tmp_path_factory, argv):
    """Any gen flags give exit 0, 1 or 2, with one error line when not 0;
    a dataset it writes parses."""
    out_dir = tmp_path_factory.mktemp("gen")
    with contextlib.chdir(out_dir):
        code, out = run_generated(argv)
        if code == 0:
            paths = [arg.partition("=")[2] for arg in argv if arg.startswith("--out=")]
            written = Path(paths[-1]).read_bytes() if paths else out.encode()
            assert len(ug.parse_dataset(written)) in (4, 50)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(INPUTS) | st.text())
def test_stats_generated_input(inputs_dir, name):
    """stats on any --input gives exit 0 with one JSON object, or 1 or 2
    with one error line."""
    with contextlib.chdir(inputs_dir):
        code, out = run_generated(["stats", f"--input={name}"])
    if code == 0:
        assert set(json.loads(out)) >= {"n_graphs", "n_pos", "n_neg", "empty"}


class TestEvaluateCommand:
    def test_smoke_and_determinism(self, capsys, tmp_path):
        ds_path = tmp_path / "synth.json"
        cfg = ug.SynthConfig(
            seed=2, n_pos=10, n_neg=10, num_nodes=6,
            background_edges_per_graph=4, background_prob_range=(0.3, 0.8),
            planted=ug.Subgraph.from_edges([(0, 1), (1, 2)]),
            planted_prob_pos=0.9, planted_prob_neg=0.1,
        )
        ds_path.write_bytes(ug.serialize_dataset(ug.generate(cfg)))
        base = [
            "evaluate", "--input", str(ds_path), "--top", "3", "--min-sup", "0.2",
            "--repeats", "2", "--seed", "11",
        ]
        code, out1, _ = run(capsys, *base)
        assert code == 0
        payload = json.loads(out1[out1.index("{"):])
        assert len(payload["error_rates"]) == 2
        _, out2, _ = run(capsys, *base)
        assert out1 == out2


    def test_negative_seed_rejected(self, capsys, fig2_file):
        code, out, err = run(capsys, "evaluate", "--input", fig2_file, "--seed", "-1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--seed" in err
        assert err.count("\n") == 1


class TestStatsCommand:
    def test_fig2(self, capsys, fig2_file):
        code, out, _ = run(capsys, "stats", "--input", fig2_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["n_graphs"] == 4
        assert payload["n_pos"] == 2
        assert payload["mean_edges"] == 2.5


class TestModuleEntryPoint:
    """``python -m ugmine`` runs the CLI from a source checkout."""

    @staticmethod
    def run_module(*argv, text=True, **env_vars):
        """Run ``python -m ugmine argv``, with ``env_vars`` added to the environment."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src, **env_vars)
        return subprocess.run(
            [sys.executable, "-m", "ugmine", *argv], capture_output=True, text=text, env=env
        )

    def test_help(self):
        done = self.run_module("--help")
        assert done.returncode == 0
        assert done.stdout.startswith("usage: ugmine")

    def test_usage_error(self):
        done = self.run_module("gen", "--preset", "fig2", "--seed", "-1")
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == "error: --seed must be >= 0\n"

    def test_stdout_independent_of_blas_threads(self, tmp_path, monkeypatch):
        # the default run sets no thread count, so the BLAS library picks its own
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        data = str(tmp_path / "hiv-like.json")
        assert self.run_module("gen", "--preset", "hiv-like", "--out", data).returncode == 0
        argv = ("mine", "--input", data, "--top", "20", "--min-sup", "0.1", "--max-edges", "2")
        one = self.run_module(*argv, text=False, OPENBLAS_NUM_THREADS="1")
        default = self.run_module(*argv, text=False)
        assert one.returncode == default.returncode == 0
        assert one.stdout and one.stdout == default.stdout
