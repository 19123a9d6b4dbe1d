"""The traced benchmark can still read every per-layer metric.

``benchmark/traced_cli.py`` wraps names of the program from outside; a name
that is renamed or removed silently drops its metrics from the report of
``benchmark/run.py``. This runs the traced CLI on a tiny dataset and checks
that every reader in ``run.PER_LAYER`` finds its value. It writes nothing
under ``benchmark/``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import DATA_DIR

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "benchmark"

# prints the value that each PER_LAYER reader gets from one trace file
_READ = """
import json, sys
sys.path.insert(0, sys.argv[1])
import run
totals = json.load(open(sys.argv[2]))["totals"]
print(json.dumps({n: read(totals, 1.0) for n, (_, _, read) in run.PER_LAYER.items()}))
"""


def _read(trace, env) -> dict:
    check = [sys.executable, "-c", _READ, str(BENCHMARK), str(trace)]
    read = subprocess.run(check, env=env, check=True, capture_output=True, text=True)
    return json.loads(read.stdout)


@pytest.mark.parametrize(
    "argv",
    [
        ["mine", "--min-sup", "0", "--top", "3"],
        ["evaluate", "--min-sup", "0", "--top", "3", "--repeats", "2"],
    ],
    ids=["mine", "evaluate"],
)
def test_every_per_layer_metric_is_read(tmp_path, argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    trace = tmp_path / "trace.json"
    command = [sys.executable, str(BENCHMARK / "traced_cli.py"), str(trace), "--", *argv]
    command += ["--input", str(DATA_DIR / "fig2.json"), "--out", str(tmp_path / "out.json")]
    subprocess.run(command, env=env, check=True, capture_output=True)
    assert set(json.loads(trace.read_text())["absent"]) <= {"envelope_table"}
    assert [name for name, value in _read(trace, env).items() if value is None] == []


def test_deep_search_metrics_match_stats(tmp_path):
    """On hiv-like, where one batch holds the child lists of several stack
    nodes, every metric is read and the traced counts are the printed ones."""
    from ugmine import make_preset, serialize_dataset

    data = tmp_path / "hiv.json"
    data.write_bytes(serialize_dataset(make_preset("hiv-like", seed=0)))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    trace, out = tmp_path / "trace.json", tmp_path / "out.json"
    command = [sys.executable, str(BENCHMARK / "traced_cli.py"), str(trace), "--", "mine"]
    command += ["--input", str(data), "--min-sup", "0.05", "--max-edges", "2", "--out", str(out)]
    subprocess.run(command, env=env, check=True, capture_output=True)
    traced = json.loads(trace.read_text())
    assert set(traced["absent"]) <= {"envelope_table"}
    # one children call per child list, and one support DP call per batch
    # (per chunk of rows in a large batch; export makes none): the batches
    # hold five lists or more on average
    totals = traced["totals"]
    assert totals["children"]["calls"] >= 10 * totals["support_dp"]["calls"] / 2
    values = _read(trace, env)
    assert [name for name, value in values.items() if value is None] == []
    stats = json.loads(out.read_text())["stats"]
    assert {name: values[f"miner.{name}"] for name in stats} == stats
