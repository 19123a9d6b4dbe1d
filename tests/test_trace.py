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

# prints the PER_LAYER metrics that one trace file does not yield
_UNREAD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import run
totals = json.load(open(sys.argv[2]))["totals"]
print(json.dumps([n for n, (_, _, read) in run.PER_LAYER.items() if read(totals, 1.0) is None]))
"""


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
    check = [sys.executable, "-c", _UNREAD, str(BENCHMARK), str(trace)]
    unread = subprocess.run(check, env=env, check=True, capture_output=True, text=True)
    assert json.loads(unread.stdout) == []
