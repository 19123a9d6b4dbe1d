"""Run the ugmine CLI with timing wrappers around each layer's entry point.

Usage: python3 traced_cli.py TRACE_JSON -- <ugmine arguments>

The wrappers are installed from outside, on the names the program looks up
at call time, so the program itself is unchanged. Each wrapped name records
its call count, inclusive time, self time (inclusive minus the wrapped calls
nested in it) and an item count where one is meaningful. A name that no
longer exists is listed as absent and its layer left out of the report.
After the CLI returns, the totals are written to TRACE_JSON and the process
exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import sys
import time


class Tracer:
    def __init__(self) -> None:
        self.totals: dict[str, dict] = {}
        self.absent: list[str] = []
        self._stack: list[float] = []

    def wrap(self, owner, attr: str, name: str, items=None) -> None:
        """Replace ``owner.attr`` by a timed wrapper reporting under ``name``.

        ``items(args, result)`` returns the work count of one call.
        """
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            self.absent.append(name)
            return
        total = self.totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "items": 0})
        stack = self._stack
        clock = time.perf_counter

        def timed(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = clock() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += spent
                total["calls"] += 1
                total["s"] += spent
                total["self_s"] += spent - nested
            if items is not None:
                total["items"] += items(args, result)
            return result

        setattr(owner, attr, timed)


def _search_stats(tracer: Tracer):
    """Item counter for mine: sums the fields of each returned SearchStats.

    A field the result no longer has is left out, so it reads as absent.
    """
    acc = tracer.totals.setdefault("search", {})

    def count(args, result) -> int:
        stats = getattr(result, "stats", None)
        for f in ("nodes_evaluated", "frequency_pruned", "bound_pruned"):
            if hasattr(stats, f):
                acc[f] = acc.get(f, 0) + getattr(stats, f)
        if hasattr(stats, "theta_trace"):
            acc["theta_trace_len"] = acc.get("theta_trace_len", 0) + len(stats.theta_trace)
        return 0

    return count


def install(tracer: Tracer) -> None:
    import ugmine.classify as classify
    import ugmine.cli as cli
    import ugmine.miner as miner

    grids = getattr(miner, "_MeasureGrids", None)
    cands = getattr(miner, "_CandidateList", None)
    stats = _search_stats(tracer)
    tracer.wrap(cli, "parse_dataset", "parse")
    tracer.wrap(cli, "mine", "cli.mine", stats)
    tracer.wrap(cli, "evaluate", "cli.evaluate")
    tracer.wrap(miner, "mine", "classify.mine", stats)
    tracer.wrap(miner, "union_graph", "union")
    tracer.wrap(miner, "score_grid", "score_grid")
    tracer.wrap(miner, "envelope_table", "envelope_table")
    tracer.wrap(miner, "children", "children", lambda a, r: len(r))
    tracer.wrap(miner, "canonical_parent", "canonical_parent")
    tracer.wrap(miner, "_batched_support", "support_dp", lambda a, r: len(a[0]))
    tracer.wrap(grids, "values", "measure", lambda a, r: len(a[1]))
    tracer.wrap(grids, "bounds", "bound")
    tracer.wrap(cands, "offer", "offer")
    tracer.wrap(classify, "featurize", "featurize")
    tracer.wrap(classify, "train_logistic_regression", "train")


def main() -> int:
    trace_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py TRACE_JSON -- <ugmine arguments>")
    tracer = Tracer()
    install(tracer)
    from ugmine.cli import main as cli_main

    code = cli_main(argv)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"totals": tracer.totals, "absent": tracer.absent}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
