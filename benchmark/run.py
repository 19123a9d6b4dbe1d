"""Benchmark of the ugmine CLI: end-to-end time, memory and set-up per workload.

Run from the root of a source checkout:

    python3 benchmark/run.py --workload hiv-deep --seed 3 --seconds 20 --trace 0
    python3 benchmark/run.py                 # every workload, untraced and traced
    python3 benchmark/run.py --write-spec    # rewrite BENCHMARK.json

Each workload generates its dataset from ``--seed`` with ``ugmine gen`` (the
set-up), then runs its ``ugmine`` command as a child process, one at a time,
until ``--seconds`` have passed; an untraced run repeats the set-up once per
round to time it. Every output is
checked against the independent computation in ``reference.py`` and against
the run's first output byte for byte. With ``--trace 1`` the runs alternate
between the plain CLI and ``traced_cli.py``, which times each layer from
outside the program, and per-layer metrics are reported instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402

LAUNCH = "import sys; from ugmine.cli import main; sys.exit(main())"
RUN_SECONDS = 30
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    argv: tuple[str, ...]
    why: str
    check: Callable[[dict, str], list[str]]


def _check_median(report: dict, data_path: str) -> list[str]:
    return reference.check_median(report, reference.Data(data_path), min_sup=0.2, top=10)


def _check_deep(report: dict, data_path: str) -> list[str]:
    data = reference.Data(data_path)
    return reference.check_top(report, data, min_sup=0.05, top=100, phi=1.0)


def _check_evaluate(report: dict, data_path: str) -> list[str]:
    return reference.check_evaluate(report, repeats=20, max_mean_error=0.1)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "adhd-median",
            "adhd-like",
            ("mine", "--measure", "median", "--score", "conf", "--top", "10", "--min-sup", "0.2"),
            "shallow search (8016 of 8022 nodes frequency-pruned): time is in the median "
            "measure, the root-batch support DP and parsing",
            _check_median,
        ),
        Workload(
            "hiv-deep",
            "hiv-like",
            ("mine", "--top", "100", "--min-sup", "0.05", "--max-edges", "2"),
            "deep phi-pr/ratio search (about 317k nodes): time is in child generation and "
            "canonical-parent tests; the only workload where the bound prune fires",
            _check_deep,
        ),
        Workload(
            "adhd-evaluate",
            "adhd-like",
            ("evaluate", "--top", "10", "--min-sup", "0.2", "--repeats", "20", "--seed", "0"),
            "20 short searches on 160-graph splits: per-search set-up and the root-batch DP "
            "repeat, and the classify layer runs only here",
            _check_evaluate,
        ),
    )
}

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]

Totals = dict[str, dict]


def _sum(*names: str, key: str = "s"):
    def read(t: Totals, wall: float):
        present = [t[n][key] for n in names if n in t]
        return sum(present) if present else None

    return read


def _ratio(num, den):
    def read(t: Totals, wall: float):
        a, b = num(t, wall), den(t, wall)
        if a is None or b is None:
            return None
        return a / b if b else 0.0

    return read


def _search(field: str):
    return lambda t, wall: t.get("search", {}).get(field)


def _cli_other(t: Totals, wall: float):
    if not all(n in t for n in ("parse", "cli.mine", "cli.evaluate")):
        return None
    return wall - t["parse"]["s"] - t["cli.mine"]["s"] - t["cli.evaluate"]["s"]


def _useful(t: Totals, wall: float):
    n, pruned = _search("nodes_evaluated")(t, wall), _search("frequency_pruned")(t, wall)
    if n is None or pruned is None:
        return None
    return (n - pruned) / n if n else 0.0


# name -> (unit, better, how to read it from one traced run's totals)
PER_LAYER: dict[str, tuple[str, str, Callable]] = {
    "graphs.parse_s": ("s", "lower", _sum("parse")),
    "graphs.union_s": ("s", "lower", _sum("union")),
    "graphs.union_calls": ("count", "lower", _sum("union", key="calls")),
    "scores.tables_s": ("s", "lower", _sum("score_grid", "envelope_table")),
    "miner.children_s": ("s", "lower", _sum("children")),
    "miner.children_calls": ("count", "lower", _sum("children", key="calls")),
    "miner.children_out": ("count", "lower", _sum("children", key="items")),
    "miner.canonical_parent_s": ("s", "lower", _sum("canonical_parent")),
    "miner.canonical_parent_calls": ("count", "lower", _sum("canonical_parent", key="calls")),
    "miner.child_accept_ratio": (
        "ratio",
        "higher",
        _ratio(_sum("children", key="items"), _sum("canonical_parent", key="calls")),
    ),
    "miner.support_dp_s": ("s", "lower", _sum("support_dp")),
    "miner.support_dp_rows": ("count", "lower", _sum("support_dp", key="items")),
    "miner.dp_useful_ratio": ("ratio", "higher", _useful),
    "miner.measure_s": ("s", "lower", _sum("measure")),
    "miner.measure_rows": ("count", "lower", _sum("measure", key="items")),
    "miner.bound_s": ("s", "lower", _sum("bound")),
    "miner.offer_s": ("s", "lower", _sum("offer")),
    "miner.offer_calls": ("count", "lower", _sum("offer", key="calls")),
    "miner.nodes_evaluated": ("count", "lower", _search("nodes_evaluated")),
    "miner.frequency_pruned": ("count", "lower", _search("frequency_pruned")),
    "miner.bound_pruned": ("count", "higher", _search("bound_pruned")),
    "miner.theta_trace_len": ("count", "lower", _search("theta_trace_len")),
    "miner.search_self_s": ("s", "lower", _sum("cli.mine", "classify.mine", key="self_s")),
    "classify.mine_s": ("s", "lower", _sum("classify.mine")),
    "classify.featurize_s": ("s", "lower", _sum("featurize")),
    "classify.train_s": ("s", "lower", _sum("train")),
    "cli.other_s": ("s", "lower", _cli_other),
}
OVERHEAD = "trace.overhead_s"


def spec() -> dict:
    return {
        "command": ["python3", "benchmark/run.py"],
        "paths": ["benchmark"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": END_TO_END,
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better, _) in PER_LAYER.items()
        ]
        + [{"name": OVERHEAD, "unit": "s", "better": "lower"}],
    }


@dataclass
class Invocation:
    code: int
    wall_s: float
    peak_rss_mb: float
    out: bytes


class Runner:
    """Runs CLI child processes from the checkout root, counting every one."""

    def __init__(self, root: Path, work: Path) -> None:
        self.root = root
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.attempted = 0

    def run(self, prefix: list[str], argv: list[str], out: Path) -> Invocation:
        self.attempted += 1
        out.unlink(missing_ok=True)
        log = self.work / "child.log"
        start = time.perf_counter()
        with open(log, "wb") as sink:
            proc = subprocess.Popen(
                [sys.executable, *prefix, *argv, "--out", str(out)],
                cwd=self.root,
                env=self.env,
                stdout=sink,
                stderr=subprocess.STDOUT,
            )
            try:
                status, usage = _wait(proc)
            finally:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        wall = time.perf_counter() - start
        code = os.waitstatus_to_exitcode(status) if status is not None else -9
        if code != 0:
            tail = log.read_bytes()[-400:].decode("utf-8", "replace")
            print(f"child exited {code}: {' '.join(argv)}\n{tail}", file=sys.stderr)
        data = out.read_bytes() if out.exists() else b""
        return Invocation(code, wall, usage.ru_maxrss / 1024 if usage else 0.0, data)


def _wait(proc: subprocess.Popen):
    """Reap the child and return (wait status, rusage); (None, None) if it was killed.

    ``os.wait4`` is used instead of ``Popen.wait`` because it also returns the
    child's own resource usage, including its peak resident memory. It blocks,
    so the benchmark takes no CPU while the child runs; a timer kills a child
    that runs too long.
    """
    killed = threading.Event()

    def kill() -> None:
        killed.set()
        proc.kill()

    timer = threading.Timer(CHILD_TIMEOUT_S, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if killed.is_set():
        print(f"child killed after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None, None
    return status, usage


class Result:
    """Failure and correctness accounting over the CLI invocations of one run."""

    def __init__(self, workload: Workload, data_path: Path) -> None:
        self.workload = workload
        self.data_path = data_path
        self.failed = 0
        self.wrong = False
        self.first: bytes | None = None
        self.verdicts: dict[bytes, list[str]] = {}

    def judge(self, inv: Invocation) -> bool:
        """True if the invocation succeeded; counts it as failed otherwise."""
        if inv.code != 0:
            self.failed += 1
            return False
        if self.first is None:
            self.first = inv.out
        problems = self._check(inv.out)
        if inv.out != self.first:
            problems = problems + ["output differs from the first run's output"]
        if problems:
            print("check failed: " + "; ".join(problems[:5]), file=sys.stderr)
            self.failed += 1
            self.wrong = True
            return False
        return True

    def judge_setup(self, inv: Invocation, expected: bytes) -> bool:
        """True if a repeated set-up succeeded and wrote the same dataset bytes."""
        if inv.code == 0 and inv.out == expected:
            return True
        if inv.code == 0:
            print("check failed: set-up wrote a different dataset", file=sys.stderr)
            self.wrong = True
        self.failed += 1
        return False

    def _check(self, out: bytes) -> list[str]:
        if out not in self.verdicts:
            try:
                report = json.loads(out)
                self.verdicts[out] = self.workload.check(report, str(self.data_path))
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                self.verdicts[out] = [f"unreadable output: {exc!r}"]
        return self.verdicts[out]


def run_workload(root: Path, workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    (root / ".bench_run").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=root / ".bench_run"))
    try:
        return _run_in(Runner(root, work), workload, seed, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_in(runner: Runner, workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    gen_argv = ["gen", "--preset", workload.preset, "--seed", str(seed)]
    data = runner.work / "data.json"
    setup = runner.run(["-c", LAUNCH], gen_argv, data)
    if setup.code != 0 or not setup.out:
        raise SystemExit(f"set-up failed: ugmine {' '.join(gen_argv)}")
    setup_times = [setup.wall_s]
    result = Result(workload, data)
    argv = [*workload.argv, "--input", str(data)]
    out = runner.work / "out.json"
    trace_file = runner.work / "trace.json"
    traced_prefix = [str(HERE / "traced_cli.py"), str(trace_file), "--"]
    plain: list[Invocation] = []
    traced: list[tuple[Invocation, dict]] = []
    start = time.perf_counter()
    while True:
        inv = runner.run(["-c", LAUNCH], argv, out)
        if result.judge(inv):
            plain.append(inv)
        if trace:
            trace_file.unlink(missing_ok=True)
            inv = runner.run(traced_prefix, argv, out)
            if result.judge(inv) and trace_file.exists():
                traced.append((inv, json.loads(trace_file.read_bytes())))
        else:
            # Set-up is repeated once per round rather than all at the start,
            # so that a slow spell of the machine does not hit every repeat.
            inv = runner.run(["-c", LAUNCH], gen_argv, runner.work / "regen.json")
            if result.judge_setup(inv, setup.out):
                setup_times.append(inv.wall_s)
        if time.perf_counter() - start >= seconds:
            break
    metrics: dict[str, dict] = {}
    if trace:
        metrics = layer_metrics(plain, traced)
    elif plain:
        metrics = {
            "wall_s": _metric(statistics.median(i.wall_s for i in plain), "s"),
            "peak_rss_mb": _metric(statistics.median(i.peak_rss_mb for i in plain), "MB"),
            "setup_s": _metric(statistics.median(setup_times), "s"),
        }
    return {
        "correct": not result.wrong,
        "attempted": runner.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(plain: list[Invocation], traced: list[tuple[Invocation, dict]]) -> dict:
    if not plain or not traced:
        return {}
    absent = sorted({n for _, t in traced for n in t["absent"]})
    if absent:
        print(f"trace: names not found in the program: {', '.join(absent)}", file=sys.stderr)
    metrics = {}
    for name, (unit, _, read) in PER_LAYER.items():
        values = [read(t["totals"], inv.wall_s) for inv, t in traced]
        if any(v is None for v in values):
            print(f"trace: {name} absent", file=sys.stderr)
            continue
        middle = statistics.median_low if unit == "count" else statistics.median
        metrics[name] = _metric(middle(values), unit)
    overhead = statistics.median(i.wall_s for i, _ in traced) - statistics.median(
        i.wall_s for i in plain
    )
    metrics[OVERHEAD] = _metric(overhead, "s")
    return metrics


def _print_metrics(label: str, res: dict) -> None:
    print(f"{label}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
    for name, m in res["metrics"].items():
        print(f"  {name:<32} {m['value']:>14.6g} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), help="default: both, one after the other")
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if args.write_spec:
        text = json.dumps(spec(), indent=2) + "\n"
        (root / "BENCHMARK.json").write_text(text, encoding="utf-8")
        return 0
    if not (root / "src" / "ugmine" / "cli.py").is_file():
        print("error: run from the root of a ugmine checkout (src/ugmine missing)", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    results = {}
    for name in names:
        for traced in modes:
            res = run_workload(root, WORKLOADS[name], args.seed, args.seconds, traced)
            label = f"{name} seed={args.seed} trace={int(traced)}"
            _print_metrics(label, res)
            results[label] = res
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
    else:
        print(json.dumps(results))
    return 0 if all(r["metrics"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
